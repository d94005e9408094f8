"""End-to-end node behavior: joins, uplinks, filtering, downlinks, handover."""

import random
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loraledger.consensus import (
    BlockAnnounce,
    BlockProposal,
    CommitNotice,
    OrdererTick,
    TxSubmit,
    VoteMessage,
    make_vote,
)
from loraledger.crypto import (
    BadKeyError,
    RootKey,
    derive_session_keys,
    generate_keypair,
    pk_encrypt,
    sign,
)
from loraledger.frames import (
    DEV_ADDR_LEN,
    DIR_DOWN,
    DIR_UP,
    MAX_FRM_PAYLOAD,
    SessionKeys,
    build_data_frame,
    build_join_request,
    encrypt_payload,
)
from loraledger.harness import bootstrap_sessions, build_world
from loraledger.ledger import (
    KIND_APPLICATION,
    KIND_NETWORK,
    Block,
    InvalidBlockError,
    SessionContext,
    Transaction,
    assemble_block,
    block_hash,
    context_metadata,
    make_app_tx,
    make_network_tx,
)
from loraledger.joinserver import ABP_COUNTER_MIN, format_dev_addr
from loraledger.metrics import MetricsRecorder
from loraledger.nodes import (
    BEHAVIOR_UPLINK_LOOP,
    DeviceProfile,
    DownlinkData,
    DownlinkFrameForward,
    EndDevice,
    FrameForward,
    UplinkNotice,
)
from loraledger.scenario import ConfigError, build_config
from loraledger.simnet import LINK_CLASS_AIR, US_PER_MS, US_PER_S, Engine
from test_crypto import count_keyed_contexts


def make_config(**overrides):
    base = dict(experiment=2, mode="edge", n_devices=4, n_gateways=2, n_servers=2, seed=7)
    base.update(overrides)
    return build_config(flag_overrides=base)


def run_for(world, seconds):
    world.engine.run_until(world.engine.now_us + int(seconds * US_PER_S))


def app_world(**overrides):
    world = build_world(make_config(**overrides))
    bootstrap_sessions(world)
    return world


# ---------------------------------------------------------------------------
# join flows


def test_edge_join_roundtrip():
    """OTA join against the gateway-resident join server, then ledger commit."""
    world = build_world(make_config(experiment=1))
    device = world.devices[0]
    gw0 = world.gateways[0]
    device.begin_join()
    run_for(world, 2.0)

    assert device.state == "joined"
    assert device.session is not None
    addr = device.session.keys.dev_addr
    assert addr == format_dev_addr(0, 1)
    assert gw0.core.joins_accepted == 1
    # the device and the join server independently derived the same network key
    assert gw0.core.sessions[addr].context.nwk_s_key == device.session.keys.nwk_s_key
    record = world.recorder.by_kind("join")[0]
    assert record.status == "completed"
    assert record.latency_us == 800_000  # two fixed 400 ms air hops

    # the accept raced ahead of consensus: no context on the ledger at 2 s
    assert gw0.ledgers[KIND_NETWORK].query_context(addr) is None
    run_for(world, 3.0)
    for node in world.gateways + world.servers:
        ledger = node.ledgers[KIND_NETWORK]
        assert ledger.height == 1
        tx = ledger.query_context(addr)
        assert tx is not None and tx.requester == "gw0"

    # the fresh session carries an uplink end to end
    device.send_uplink()
    run_for(world, 4.0)
    uplink = world.recorder.by_kind("uplink")[0]
    assert uplink.status == "completed"
    expected_ct = encrypt_payload(device.session.keys, 0, DIR_UP, device.payload_plaintext(0))
    app = world.servers[0].ledgers[KIND_APPLICATION]
    assert [tx.payload for block in app.blocks for tx in block.txs] == [expected_ct]


def test_edge_join_work_units():
    """A valid join costs the gateway exactly parse+mic+tx+accept = 9 units."""
    world = build_world(make_config(experiment=1))
    world.devices[0].begin_join()
    run_for(world, 1.0)
    assert world.gateways[0].work_units == 9
    assert world.servers[0].work_units == 0  # ordering/validation is not charged


def test_edge_join_unknown_device_filtered():
    world = build_world(make_config(experiment=1))
    device = world.devices[0]
    raw = build_join_request(RootKey(b"\x11" * 16), device.app_eui, b"\xff" * 8, b"\x00\x01")
    world.engine.send(device.uplink, raw, len(raw))
    run_for(world, 1.0)
    gw0 = world.gateways[0]
    assert gw0.filtered_frames == 1
    assert gw0.work_units == 1  # parse only; no MIC attempt without a registration
    assert gw0.core.joins_accepted == 0


def test_edge_join_bad_mic_filtered():
    world = build_world(make_config(experiment=1))
    device = world.devices[0]
    raw = build_join_request(RootKey(b"\x22" * 16), device.app_eui, device.dev_eui, b"\x00\x02")
    world.engine.send(device.uplink, raw, len(raw))
    run_for(world, 1.0)
    gw0 = world.gateways[0]
    assert gw0.filtered_frames == 1
    assert gw0.work_units == 3  # parse + failed MIC
    assert gw0.core.joins_accepted == 0


def test_edge_join_nonce_replay_filtered():
    """Replaying a captured join request must not mint a second accept."""
    world = build_world(make_config(experiment=1))
    device = world.devices[0]
    gw0 = world.gateways[0]
    device.begin_join()
    run_for(world, 1.0)
    assert device.state == "joined"
    dev_nonce = gw0.core.sessions[device.session.keys.dev_addr].context.dev_nonce
    raw = build_join_request(device.app_key, device.app_eui, device.dev_eui, dev_nonce)
    world.engine.send(device.uplink, raw, len(raw))
    run_for(world, 1.0)
    assert gw0.filtered_frames == 1
    assert gw0.core.joins_accepted == 1
    assert gw0.work_units == 9 + 3  # replay pays parse + MIC before the nonce check


def test_traditional_join_roundtrip():
    """Joins traverse the backhaul both ways and settle on the server ledgers."""
    world = build_world(make_config(experiment=1, mode="traditional"))
    device = world.devices[0]
    srv0 = world.servers[0]
    device.begin_join()
    run_for(world, 2.0)

    assert device.state == "joined"
    assert device.session.keys.dev_addr == format_dev_addr(0, 1)
    assert srv0.core.joins_accepted == 1
    assert srv0.work_units == 9
    assert world.gateways[0].work_units == 0  # transparent pipe
    record = world.recorder.by_kind("join")[0]
    assert record.status == "completed"
    # 2 x 400 ms air plus two backhaul hops of 5..20 ms each
    assert 810_000 <= record.latency_us <= 840_000

    run_for(world, 3.0)
    for srv in world.servers:
        assert srv.ledgers[KIND_NETWORK].height == 1
    for gw in world.gateways:
        assert gw.ledgers == {}  # traditional gateways maintain nothing


def test_traditional_join_unknown_device():
    world = build_world(make_config(experiment=1, mode="traditional"))
    device = world.devices[0]
    raw = build_join_request(RootKey(b"\x33" * 16), device.app_eui, b"\xee" * 8, b"\x00\x03")
    world.engine.send(device.uplink, raw, len(raw))
    run_for(world, 1.0)
    srv0 = world.servers[0]
    assert srv0.filtered_frames == 1
    assert srv0.work_units == 1
    assert world.gateways[0].forwarded_uplinks == 1  # it still crossed the backhaul


def test_join_processing_delay_shifts_accept():
    world = build_world(make_config(experiment=1, join_processing_delay_ms=150))
    world.devices[0].begin_join()
    run_for(world, 2.0)
    record = world.recorder.by_kind("join")[0]
    assert record.status == "completed"
    assert record.latency_us == 800_000 + 150_000


def test_join_timeout_on_severed_gateway():
    """A dead radio side fails the join at exactly the timeout, not earlier."""
    world = build_world(make_config(experiment=1, severed_gateways=(0,)))
    device = world.devices[0]
    device.begin_join()
    run_for(world, 301.0)
    record = world.recorder.by_kind("join")[0]
    assert record.status == "failed"
    assert record.latency_us == 300 * US_PER_S
    assert world.gateways[0].work_units == 0
    assert world.engine.links["dev0000->gw0"].lost_msgs == 1


# ---------------------------------------------------------------------------
# uplink flows


def test_edge_uplink_flow():
    """Gateway verifies and ACKs locally; only a trimmed notice goes upstream."""
    world = app_world()
    device = world.devices[0]
    gw0, srv0, srv1 = world.gateways[0], world.servers[0], world.servers[1]
    addr = device.session.keys.dev_addr

    device.send_uplink()
    run_for(world, 1.0)
    assert gw0.forwarded_uplinks == 1
    assert gw0.core.acks_sent == 1
    assert srv0.ingested == 1
    assert gw0.work_units == 7
    assert srv0.work_units == 3
    assert srv1.work_units == 0
    record = world.recorder.by_kind("uplink")[0]
    assert record.status == "completed"
    assert record.latency_us == 800_000

    run_for(world, 3.0)
    expected_ct = encrypt_payload(device.session.keys, 0, DIR_UP, device.payload_plaintext(0))
    for srv in world.servers:
        app = srv.ledgers[KIND_APPLICATION]
        assert app.height == 1
        assert [tx.payload for block in app.blocks for tx in block.txs] == [expected_ct]
    # one 29-byte notice was the entire gateway-to-server exchange
    assert world.engine.links["gw0->srv0"].bytes_sent == 29
    assert world.engine.links["gw0->srv1"].bytes_sent == 0


def test_edge_uplink_unknown_address_filtered():
    """Self-minted sessions die at the gateway for two work units, not ten."""
    world = app_world()
    device = world.devices[0]
    device.self_mint_session()
    device.send_uplink()
    run_for(world, 1.0)
    gw0, srv0 = world.gateways[0], world.servers[0]
    assert gw0.filtered_frames == 1
    assert gw0.work_units == 2  # parse + failed context query
    assert srv0.ingested == 0
    assert world.engine.links["gw0->srv0"].offered_msgs == 0


def test_edge_uplink_bad_mic_filtered():
    world = app_world()
    device = world.devices[0]
    session = device.session
    ct = encrypt_payload(session.keys, 0, DIR_UP, b"\x00" * 20)
    raw = bytearray(build_data_frame(session.keys, 0, 1, ct, DIR_UP))
    raw[-1] ^= 0x01
    world.engine.send(device.uplink, bytes(raw), len(raw))
    run_for(world, 1.0)
    gw0 = world.gateways[0]
    assert gw0.filtered_frames == 1
    assert gw0.work_units == 4  # parse + query + failed MIC
    assert world.servers[0].ingested == 0


def test_edge_uplink_stale_fcnt_filtered():
    """A counter replay passes the MIC but is dropped before forwarding."""
    world = app_world()
    device = world.devices[0]
    session = device.session
    device.send_uplink()  # consumes fcnt 0
    ct = encrypt_payload(session.keys, 0, DIR_UP, b"\x11" * 20)
    raw = build_data_frame(session.keys, 0, 1, ct, DIR_UP)
    world.engine.send(device.uplink, raw, len(raw))
    run_for(world, 1.0)
    gw0 = world.gateways[0]
    assert gw0.forwarded_uplinks == 1
    assert gw0.filtered_frames == 1
    assert gw0.work_units == 7 + 4  # valid pass, then parse+query+MIC on the replay


def test_traditional_uplink_flow():
    """The server does all ten units of work; full frames cross the backhaul."""
    world = app_world(mode="traditional")
    device = world.devices[0]
    gw0, srv0 = world.gateways[0], world.servers[0]

    device.send_uplink()
    run_for(world, 1.0)
    assert gw0.work_units == 0
    assert gw0.forwarded_uplinks == 1
    assert srv0.work_units == 10
    assert srv0.ingested == 1
    assert srv0.core.acks_sent == 1
    record = world.recorder.by_kind("uplink")[0]
    assert record.status == "completed"
    assert 810_000 <= record.latency_us <= 840_000
    # 43 = frame forward (11 overhead + 32 frame); 23 = ACK frame forward back
    assert world.engine.links["gw0->srv0"].bytes_sent == 43
    assert world.engine.links["srv0->gw0"].bytes_sent == 23

    run_for(world, 3.0)
    for srv in world.servers:
        assert srv.ledgers[KIND_APPLICATION].height == 1


def test_traditional_unknown_address_reaches_server():
    """Without edge filtering the junk still costs backhaul bytes and 2 units."""
    world = app_world(mode="traditional")
    device = world.devices[0]
    device.self_mint_session()
    device.send_uplink()
    run_for(world, 1.0)
    srv0 = world.servers[0]
    assert srv0.filtered_frames == 1
    assert srv0.work_units == 2
    assert world.engine.links["gw0->srv0"].bytes_sent == 43


def test_two_acks_settle_both_pending_uplinks():
    world = app_world()
    device = world.devices[0]
    device.send_uplink()
    device.send_uplink()
    run_for(world, 1.0)
    records = world.recorder.by_kind("uplink")
    assert [r.status for r in records] == ["completed", "completed"]
    assert device._pending_uplinks == {}
    assert device.session.last_fcnt_down == 1
    assert world.gateways[0].core.sessions[device.session.keys.dev_addr].next_fcnt_down == 2


def test_uplink_timeout_marks_failure():
    world = app_world(loss_rate=0.0, severed_gateways=(0,))
    device = world.devices[0]
    device.send_uplink()
    run_for(world, 31.0)
    record = world.recorder.by_kind("uplink")[0]
    assert record.status == "failed"
    assert record.latency_us == 30 * US_PER_S


class EndLog(MetricsRecorder):
    """A recorder that also logs each end of a request: (request id, status, time)."""

    def __init__(self) -> None:
        super().__init__()
        self.ends: list[tuple[int, str, int]] = []

    def complete(self, request_id: int, now_us: int) -> None:
        self.ends.append((request_id, "completed", now_us))
        super().complete(request_id, now_us)

    def fail(self, request_id: int, now_us: int) -> None:
        self.ends.append((request_id, "failed", now_us))
        super().fail(request_id, now_us)


UPLINK_TIMEOUT_US = 3 * US_PER_S
_ack_delays = st.none() | st.integers(0, 2 * UPLINK_TIMEOUT_US) | st.integers(-2, 2).map(
    lambda offset: UPLINK_TIMEOUT_US + offset
)


@settings(max_examples=80, deadline=None)
@given(uplinks=st.lists(st.tuples(_ack_delays, st.integers(0, 5)), min_size=1, max_size=6))
def test_each_uplink_ends_once_at_its_ack_or_at_its_deadline(uplinks):
    """One device on a bare engine; the controller's ACK is handed in after a drawn delay
    (None: lost), the next uplink goes out ``gap`` microseconds after the last one ended.

    An uplink completes when an ACK lands before its deadline, and fails at
    issue time plus the timeout otherwise: at the deadline microsecond the
    timer, armed first, wins.  Each ends exactly once.
    """
    engine, recorder = Engine(1), EndLog()
    engine.register("gw0", lambda payload: None)
    profile = DeviceProfile(BEHAVIOR_UPLINK_LOOP, US_PER_S, US_PER_S, US_PER_S, UPLINK_TIMEOUT_US)
    device = EndDevice("dev0", 0, bytes(8), bytes(8), RootKey(bytes(16)), engine, profile, recorder)
    device.attach_uplink(engine.add_link("dev0", "gw0", LINK_CLASS_AIR, (1, 1)))
    dev_addr, nwk_s_key = format_dev_addr(0, 1), bytes(range(16))
    device.install_session(dev_addr, nwk_s_key, bytes(range(16, 32)))
    controller = SessionKeys(dev_addr, nwk_s_key)
    expected = []
    for fcnt_down, (ack_delay_us, gap_us) in enumerate(uplinks):
        issued_us = engine.now_us
        device.send_uplink()
        if ack_delay_us is not None:
            ack = build_data_frame(controller, fcnt_down, 0, b"", DIR_DOWN)
            engine.schedule(ack_delay_us, "dev0", ack)
        if ack_delay_us is not None and ack_delay_us < UPLINK_TIMEOUT_US:
            expected.append((fcnt_down, "completed", issued_us + ack_delay_us))
        else:
            expected.append((fcnt_down, "failed", issued_us + UPLINK_TIMEOUT_US))
        engine.run_until(issued_us + max(ack_delay_us or 0, UPLINK_TIMEOUT_US) + gap_us)
    assert recorder.ends == expected
    assert device._pending_uplinks == {}
    assert device.session.fcnt_up == len(uplinks)


def test_device_stops_at_counter_exhaustion():
    world = app_world()
    device = world.devices[0]
    device.session.fcnt_up = 0x10000
    device.send_uplink()
    assert device.skipped_sends == 1
    assert world.recorder.by_kind("uplink") == []


def test_device_skips_a_join_once_every_dev_nonce_is_spent():
    """With all 65,536 DevNonces used, a join returns at once instead of drawing forever."""
    world = build_world(make_config(experiment=1))
    device = world.devices[0]
    device._used_dev_nonces.update(struct.pack("<H", n) for n in range(0x10000))
    joiner = threading.Thread(target=device.begin_join, daemon=True)
    joiner.start()
    joiner.join(timeout=5)
    assert not joiner.is_alive()
    assert world.recorder.by_kind("join") == []
    assert device.state == "idle"
    assert device.skipped_sends == 1


# ---------------------------------------------------------------------------
# downlinks


def test_edge_downlink_payload_only_to_gateway():
    """The server ships 29 bytes; the gateway builds and tags the frame."""
    world = app_world()
    device = world.devices[0]
    gw0, srv0 = world.gateways[0], world.servers[0]
    addr = device.session.keys.dev_addr
    plaintext = b"actuate:\x01\x02"
    fcnt = srv0.core.reserve_fcnt_down(addr)
    assert fcnt == 0
    ct = encrypt_payload(device.session.keys, fcnt, DIR_DOWN, plaintext)
    srv0.downlink(addr, ct, fcnt)
    run_for(world, 1.0)

    assert device.received_downlinks == [plaintext]
    assert srv0.work_units == 1  # context existence check only
    assert gw0.work_units == 4  # query + frame build
    assert world.engine.links["srv0->gw0"].bytes_sent == 9 + len(ct)

    # ACKs have their own counter, so the pushed frame does not make the next one stale
    device.send_uplink()
    run_for(world, 1.0)
    assert world.recorder.by_kind("uplink")[0].status == "completed"


def test_traditional_downlink_full_frame():
    world = app_world(mode="traditional")
    device = world.devices[0]
    srv0 = world.servers[0]
    addr = device.session.keys.dev_addr
    plaintext = b"actuate:\x03\x04"
    fcnt = srv0.core.reserve_fcnt_down(addr)
    ct = encrypt_payload(device.session.keys, fcnt, DIR_DOWN, plaintext)
    srv0.downlink(addr, ct, fcnt)
    run_for(world, 1.0)
    assert device.received_downlinks == [plaintext]
    assert srv0.work_units == 4  # query + frame build happen centrally
    assert world.engine.links["srv0->gw0"].bytes_sent == 11 + 12 + len(ct)


@pytest.mark.parametrize("mode", ["edge", "traditional"])
def test_downlink_after_ack_reaches_device(mode):
    """ACKs and application downlinks are counted apart, so neither looks like a replay."""
    world = app_world(mode=mode)
    device = world.devices[0]
    srv0 = world.servers[0]
    addr = device.session.keys.dev_addr
    device.send_uplink()
    run_for(world, 1.0)
    assert device.session.last_fcnt_down == 0

    fcnt = srv0.core.reserve_fcnt_down(addr)
    ct = encrypt_payload(device.session.keys, fcnt, DIR_DOWN, b"after-ack")
    srv0.downlink(addr, ct, fcnt)
    run_for(world, 1.0)
    assert device.received_downlinks == [b"after-ack"]

    device.send_uplink()
    run_for(world, 1.0)
    assert [r.status for r in world.recorder.by_kind("uplink")] == ["completed", "completed"]


def test_edge_downlink_unknown_address_raises():
    world = app_world()
    srv0 = world.servers[0]
    with pytest.raises(ValueError):
        srv0.downlink(b"\x00\x99\x99\x99", b"x" * 8, 0)  # gateway exists, no context
    with pytest.raises(ValueError):
        srv0.downlink(b"\xee\x01\x00\x00", b"x" * 8, 0)  # no gateway for prefix


def test_device_rejects_foreign_stale_and_tampered_downlinks():
    world = app_world()
    device = world.devices[0]
    session = device.session
    other_addr = b"\x00\x02\x00\x00"
    stray_keys = SessionKeys(other_addr, session.keys.nwk_s_key)
    stray = build_data_frame(stray_keys, 0, 1, b"\x22" * 8, DIR_DOWN)
    device._on_air_frame(stray)
    assert device.received_downlinks == []

    ct = encrypt_payload(session.keys, 3, DIR_DOWN, b"fresh!")
    good = build_data_frame(session.keys, 3, 1, ct, DIR_DOWN)
    device._on_air_frame(good)
    assert device.received_downlinks == [b"fresh!"]
    assert (session.last_app_fcnt_down, session.last_fcnt_down) == (3, -1)

    device._on_air_frame(good)  # application counter replay
    assert device.received_downlinks == [b"fresh!"]

    # an ACK below the application counter is still fresh; its replay is not
    device.send_uplink()
    device.send_uplink()
    ack = build_data_frame(session.keys, 0, 0, b"", DIR_DOWN)
    device._on_air_frame(ack)
    device._on_air_frame(ack)  # ACK counter replay
    statuses = [r.status for r in world.recorder.by_kind("uplink")]
    assert statuses == ["inflight", "completed"]  # the ACK settles the newest
    assert (session.last_app_fcnt_down, session.last_fcnt_down) == (3, 0)

    raw = bytearray(good)
    raw[5] ^= 0x01
    device._on_air_frame(bytes(raw))  # integrity failure
    assert device.received_downlinks == [b"fresh!"]


# ---------------------------------------------------------------------------
# provisioning and handover


def test_abp_provision_and_uplink():
    """Personalized devices skip the join but still land on the ledger."""
    world = build_world(make_config(mode="traditional"))
    device = world.devices[0]
    srv0 = world.servers[0]
    dev_addr = format_dev_addr(0, ABP_COUNTER_MIN + 77)
    nwk_s_key, app_s_key = derive_session_keys(
        device.app_key, b"\x09\x08\x07", world.config.net_id, b"\x00\x09"
    )
    context = SessionContext(
        dev_eui=device.dev_eui,
        app_key=device.app_key.key,
        dev_addr=dev_addr,
        nwk_s_key=nwk_s_key,
        dev_nonce=b"\x00\x09",
        app_nonce=b"\x09\x08\x07",
    )
    srv0.abp_provision(context, device.device_id)
    device.install_session(dev_addr, nwk_s_key, app_s_key)
    run_for(world, 3.0)
    assert srv0.ledgers[KIND_NETWORK].query_context(dev_addr) is not None

    device.send_uplink()
    run_for(world, 1.0)
    assert world.recorder.by_kind("uplink")[0].status == "completed"


def test_abp_rejects_address_collision():
    world = build_world(make_config(mode="traditional"))
    srv0 = world.servers[0]
    dev_addr = format_dev_addr(0, ABP_COUNTER_MIN + 50)

    def make_context(eui_byte):
        return SessionContext(
            dev_eui=bytes([eui_byte]) * 8,
            app_key=bytes(16),
            dev_addr=dev_addr,
            nwk_s_key=bytes(16),
            dev_nonce=b"\x00\x01",
            app_nonce=b"\x00\x00\x01",
        )

    srv0.abp_provision(make_context(0xAA), "dev0000")
    with pytest.raises(ValueError):
        srv0.abp_provision(make_context(0xBB), "dev0001")  # still pending
    run_for(world, 3.0)
    with pytest.raises(ValueError):
        srv0.abp_provision(make_context(0xCC), "dev0002")  # now committed


def test_gateway_key_handover_recovers_ledger_contexts():
    """A peer holding the failed gateway's key can serve its devices from chain."""
    world = _handover_world()
    device = world.devices[0]
    gw0, gw1 = world.gateways[0], world.gateways[1]
    device.send_uplink()
    run_for(world, 1.0)
    assert gw1.filtered_frames == 1  # envelope on chain, but sealed for gw0
    assert gw1.work_units == 2

    gw1.core.receive_key_handover(gw0.entity_id, gw0.keypair.private_key)
    device.send_uplink()
    run_for(world, 1.0)
    assert gw1.forwarded_uplinks == 1
    assert world.servers[0].ingested == 1
    # the ACK settles the oldest outstanding request, so exactly one completes
    records = world.recorder.by_kind("uplink")
    assert sorted(r.status for r in records) == ["completed", "inflight"]
    assert len(device._pending_uplinks) == 1


def test_malformed_key_handover_raises_at_the_call():
    """A handover key of the wrong length is refused at once, not when a frame needs it."""
    world = _handover_world()
    device = world.devices[0]
    gw0, gw1 = world.gateways[0], world.gateways[1]
    with pytest.raises(BadKeyError):
        gw1.core.receive_key_handover(gw0.entity_id, gw0.keypair.private_key[:31])
    assert gw1.core.held_keys == {}
    device.send_uplink()
    run_for(world, 1.0)
    assert gw1.filtered_frames == 1
    assert gw1.forwarded_uplinks == 0


@pytest.mark.parametrize(
    "dev_addr, nwk_s_key, app_s_key, error",
    [
        (b"\x00\x00\x00\x63", b"short", bytes(16), BadKeyError),
        (b"\x00\x00\x00\x63", bytes(16), b"short", BadKeyError),
        (b"\x00\x63", bytes(16), bytes(16), ValueError),
    ],
    ids=["nwk-key", "app-key", "addr"],
)
def test_a_bad_session_key_is_refused_at_install(dev_addr, nwk_s_key, app_s_key, error):
    """Refused by ``install_session``, not by the engine when the first uplink is built."""
    world = build_world(make_config(n_devices=4, n_gateways=1, n_servers=1, seed=3))
    bootstrap_sessions(world)
    device = world.devices[0]
    session = device.session
    with pytest.raises(error):
        device.install_session(dev_addr, nwk_s_key, app_s_key)
    assert device.session is session
    device.send_uplink()
    run_for(world, 2.0)
    assert [r.status for r in world.recorder.by_kind("uplink")] == ["completed"]


def test_a_bad_network_session_key_is_refused_when_the_controller_opens_the_session():
    """``SessionContext`` checks the fields before the DevNonce is spent or an address
    claimed, so the same join can still open the session, at the first address."""
    world = build_world(make_config())
    device, gw0 = world.devices[0], world.gateways[0]
    registration = gw0.core.registry[device.dev_eui]
    counters = dict(gw0.core._addr_counters)
    with pytest.raises(ValueError):
        gw0.core.open_session(device.dev_eui, b"\x00\x01", b"\x00\x00\x01", b"short", gw0.index)
    assert gw0.core.sessions == {}
    assert registration.spent_nonces == set()
    assert registration.dev_addr is None
    assert gw0.core._addr_counters == counters
    context = gw0.core.open_session(device.dev_eui, b"\x00\x01", b"\x00\x00\x01", bytes(16), 0)
    assert context.dev_addr == format_dev_addr(0, counters.get(0, 0) + 1)
    assert registration.spent_nonces == {b"\x00\x01"}
    assert gw0.core._addr_counters[0] == counters.get(0, 0) + 1


def test_a_short_root_key_is_refused_when_the_device_is_made():
    """Refused when the device's ``RootKey`` is made, not by the engine when it first joins."""
    engine = Engine(1)
    profile = DeviceProfile(BEHAVIOR_UPLINK_LOOP, US_PER_S, US_PER_S, US_PER_S, US_PER_S)
    with pytest.raises(BadKeyError, match="root key must be 16 bytes"):
        EndDevice("dev0", 0, bytes(8), bytes(8), RootKey(b"short"), engine, profile, MetricsRecorder())
    assert "dev0" not in engine._handlers  # the id stays free for a device with a good key
    EndDevice("dev0", 0, bytes(8), bytes(8), RootKey(bytes(16)), engine, profile, MetricsRecorder())


def test_a_short_root_key_is_refused_when_the_device_is_registered():
    """Refused when the ``RootKey`` is made, not by the join server at the first join request."""
    world = build_world(make_config(experiment=1))
    gw0 = world.gateways[0]
    dev_eui = b"\xee" * 8
    with pytest.raises(BadKeyError, match="root key must be 16 bytes"):
        gw0.core.register_device(dev_eui, RootKey(b"short"), "dev9")
    assert dev_eui not in gw0.core.registry


def test_making_sessions_builds_no_keyed_context(monkeypatch):
    """Opened, installed, provisioned and adopted sessions build no CMAC or ECB context.

    A rejoin replaces a session that may never carry a frame; contexts made at
    install would be built for keys that never tag one.
    """
    world = _handover_world()
    device, abp = world.devices[0], world.devices[2]
    gw0, gw1, srv0 = world.gateways[0], world.gateways[1], world.servers[0]
    nwk_s_key, app_s_key = bytes(range(16)), bytes(range(16, 32))
    built = count_keyed_contexts(monkeypatch)

    context = gw0.core.open_session(device.dev_eui, b"\x07\x07", b"\x00\x00\x07", nwk_s_key, 0)
    device.install_session(context.dev_addr, nwk_s_key, app_s_key)
    abp_context = SessionContext(
        dev_eui=abp.dev_eui,
        app_key=abp.app_key.key,
        dev_addr=format_dev_addr(0, ABP_COUNTER_MIN + 77),
        nwk_s_key=nwk_s_key,
        dev_nonce=b"\x00\x09",
        app_nonce=b"\x09\x08\x07",
    )
    srv0.abp_provision(abp_context, abp.device_id)
    abp.install_session(abp_context.dev_addr, nwk_s_key, app_s_key)
    run_for(world, 3.0)  # both contexts commit
    gw1.core.receive_key_handover(gw0.entity_id, gw0.keypair.private_key)
    assert gw1.core.session(context.dev_addr) is not None  # adopted from the ledger
    assert built == {}

    device.send_uplink()  # the first frame builds the session's MIC and keystream contexts
    assert built == {"CMAC": 1, "Cipher": 1}


def _handover_world():
    """``app_world`` with dev0000 also wired to gw1, whose key cannot open its context."""
    world = app_world()
    device, engine = world.devices[0], world.engine
    air_us = (400 * US_PER_MS, 400 * US_PER_MS)
    up = engine.add_link("dev0000", "gw1", LINK_CLASS_AIR, air_us)
    down = engine.add_link("gw1", "dev0000", LINK_CLASS_AIR, air_us)
    device.attach_uplink(up)
    world.gateways[1].add_coverage(device.dev_eui, device.device_id, down)
    return world


# ---------------------------------------------------------------------------
# confidentiality of application data

SCAN_SKIP = (Engine,)


def _collect_bytes(root):
    """Every bytes object reachable through plain containers and our objects.

    An object's attributes are read from its ``__dict__`` and its slots.
    """
    seen, found, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (bytes, bytearray)):
            found.append(bytes(obj))
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, SCAN_SKIP):
            continue
        elif type(obj).__module__.startswith("loraledger"):
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                for name in vars(cls).get("__slots__", ()):
                    if hasattr(obj, name):
                        stack.append(getattr(obj, name))
    return found


def test_infrastructure_never_holds_app_plaintext_or_key():
    """Neither the reading nor the application session key exists off-device."""
    world = app_world()
    device = world.devices[0]
    device.send_uplink()
    run_for(world, 4.0)
    assert world.servers[0].ledgers[KIND_APPLICATION].height == 1

    plaintext = device.payload_plaintext(0)
    app_s_key = device.session.keys.app_s_key
    assert any(app_s_key in blob for blob in _collect_bytes(device))  # scanner works
    for node in world.gateways + world.servers:
        for blob in _collect_bytes(node):
            assert plaintext not in blob
            assert app_s_key not in blob


# ---------------------------------------------------------------------------
# vote-based consensus variant


def test_pbft_uplinks_commit_across_servers():
    world = build_world(
        make_config(mode="traditional", n_servers=4, consensus_mode="pbft", consensus_p=1)
    )
    bootstrap_sessions(world)
    world.devices[0].send_uplink()
    world.devices[1].send_uplink()
    run_for(world, 6.0)
    for srv in world.servers:
        app = srv.ledgers[KIND_APPLICATION]
        assert app.height == 1
        assert sum(len(b.txs) for b in app.blocks) == 2
        assert srv.failed_rounds == 0
        assert srv.invalid_blocks == 0
        assert srv.rejected_votes == 0


def test_pbft_join_commits_across_edge_replicas():
    world = build_world(make_config(experiment=1, consensus_mode="pbft", consensus_p=0))
    world.devices[0].begin_join()
    run_for(world, 6.0)
    assert world.devices[0].state == "joined"
    heights = [n.ledgers[KIND_NETWORK].height for n in world.gateways + world.servers]
    assert heights == [1, 1, 1, 1]


def _context_tx(keypair, payload: bytes, t_ms: int = 1) -> Transaction:
    signature = sign(keypair, struct.pack("<Q", t_ms) + payload)
    return Transaction(keypair.entity_id, signature, t_ms, payload)


@pytest.mark.parametrize(
    "metadata", [b"\x00" * 5, None], ids=["aad-not-12-bytes", "short-envelope"]
)
def test_pbft_voter_rejects_proposal_no_replica_can_append(metadata):
    """A voter votes on the rule commit applies: bad context metadata is invalid."""
    world = build_world(make_config(experiment=1, consensus_mode="pbft", consensus_p=0))
    proposer = world.consensus.orderer_hosts[KIND_NETWORK]
    voter = next(n for n in world.gateways + world.servers if n.entity_id != proposer)
    gw = world.gateways[0]
    context = SessionContext(
        dev_eui=b"\x01" * 8,
        app_key=b"\x02" * 16,
        dev_addr=b"\x00\x01\x00\x00",
        nwk_s_key=b"\x03" * 16,
        dev_nonce=b"\x00\x01",
        app_nonce=b"\x00\x00\x01",
    )
    if metadata is None:
        payload = b"\x01" * 8  # shorter than the envelope header
    else:
        payload = pk_encrypt(gw.keypair, context.to_bytes(), random.Random(0), metadata)
    good = make_network_tx(world.key_directory, gw.keypair, context, 1, random.Random(0))
    votes = []
    voter._send = lambda peer, msg: votes.append(msg)
    for tx in (good, _context_tx(gw.keypair, payload)):
        block = assemble_block([tx], 0, 1, None)
        voter.handle(BlockProposal(channel=KIND_NETWORK, proposer=proposer, block=block))
    assert [vote.verdict for vote in votes] == [True, False]
    with pytest.raises(InvalidBlockError):
        voter.ledgers[KIND_NETWORK].append_block(block, world.key_directory)


def _pbft_servers():
    world = build_world(
        make_config(mode="traditional", n_servers=4, consensus_mode="pbft", consensus_p=1)
    )
    bootstrap_sessions(world)
    assert world.consensus.orderer_hosts[KIND_APPLICATION] == world.servers[0].entity_id
    return world


def test_failed_round_proposal_evicted_after_commit():
    """A voter drops a held proposal whose round never committed once the chain passes it."""
    world = _pbft_servers()
    host = world.servers[0]
    # body-valid, but proposed at height 1 to voters still at height 0
    tx = make_app_tx(world.key_directory, host.keypair, b"payload", 1)
    early = Block(zeta=1, tau_ms=1, merkle_root=tx.signature, prev_hash=bytes(32), txs=(tx,))
    for srv in world.servers[1:]:
        srv.handle(BlockProposal(channel=KIND_APPLICATION, proposer=host.entity_id, block=early))
        assert len(srv.channels[KIND_APPLICATION].proposals) == 1  # a CommitNotice may follow
    world.devices[0].send_uplink()
    run_for(world, 6.0)
    assert all(len(srv.channels[KIND_APPLICATION].proposals) == 1 for srv in world.servers[1:])
    world.devices[1].send_uplink()
    run_for(world, 6.0)
    for srv in world.servers:
        assert srv.ledgers[KIND_APPLICATION].height == 2
        assert srv.channels[KIND_APPLICATION].proposals == {}


def test_proposal_from_outside_the_channel_is_ignored():
    """A proposer that is not a maintainer gets no vote, and the voter does not crash."""
    world = _pbft_servers()
    srv1 = world.servers[1]
    sent = []
    srv1._send = lambda peer, msg: sent.append((peer, msg))
    tx = make_app_tx(world.key_directory, world.servers[0].keypair, b"payload", 1)
    block = assemble_block([tx], 0, 1, None)
    for proposer in ("srv9", srv1.entity_id, world.gateways[0].entity_id):
        srv1.handle(BlockProposal(channel=KIND_APPLICATION, proposer=proposer, block=block))
    assert sent == []
    assert srv1.invalid_blocks == 3
    assert srv1.channels[KIND_APPLICATION].proposals == {}


def test_voter_holds_only_proposals_that_could_commit():
    """Proposals whose body no replica could append get a vote but are not kept."""
    world = _pbft_servers()
    srv1 = world.servers[1]
    votes = []
    srv1._send = lambda peer, msg: votes.append(msg)
    rogue = generate_keypair("srv9", 1)
    for zeta in range(1000, 1050):
        tx = make_app_tx(world.key_directory, rogue, b"payload", zeta)
        block = assemble_block([tx], zeta, 1, None)
        srv1.handle(BlockProposal(channel=KIND_APPLICATION, proposer="srv0", block=block))
    assert [vote.verdict for vote in votes] == [False] * 50
    assert srv1.channels[KIND_APPLICATION].proposals == {}


def test_messages_for_a_channel_the_node_does_not_keep_are_dropped():
    """A channel a node does not keep or order never crashes it and leaves no state.

    Blocks count as invalid, as an outsider's proposal does; transactions,
    votes and commit notices are dropped.
    """
    world = _pbft_servers()
    host, srv1, gw0 = world.servers[0], world.servers[1], world.gateways[0]
    sent = []
    for node in (srv1, gw0):
        node._send = lambda peer, msg: sent.append((peer, msg))
    tx = make_app_tx(world.key_directory, host.keypair, b"payload", 1)
    block = assemble_block([tx], 0, 1, None)
    digest = block_hash(block)
    signature = make_vote(world.key_directory, host.keypair, digest, True)
    vote = VoteMessage("bogus", host.entity_id, digest, True, signature)
    for channel, node in (("bogus", srv1), (KIND_NETWORK, gw0)):  # traditional gw0 keeps none
        node.handle(BlockProposal(channel=channel, proposer=host.entity_id, block=block))
        node.handle(BlockAnnounce(channel=channel, block=block))
        assert node.invalid_blocks == 2
    srv1.handle(vote)
    srv1.handle(CommitNotice(channel="bogus", block_hash=digest))
    for node in (srv1, gw0):
        node.handle(TxSubmit(channel="bogus", tx=tx))
        node.handle(TxSubmit(channel=KIND_APPLICATION, tx=tx))  # ordered by srv0 only
    run_for(world, 10.0)
    assert sent == [] and world.engine.events_processed == 0  # no batch timer either
    assert gw0.channels == {} and list(srv1.channels) == [KIND_NETWORK, KIND_APPLICATION]
    for channel in srv1.channels.values():
        assert channel.orderer is None and channel.round is None and channel.queued == []
        assert channel.early == channel.proposals == {} and channel.commit_wanted == set()


def test_pbft_quorum_must_fit_smallest_voter_set():
    with pytest.raises(ConfigError):
        make_config(mode="traditional", consensus_mode="pbft", consensus_p=1)  # 3 > 2 servers
    with pytest.raises(ConfigError):
        make_config(consensus_mode="pbft", consensus_p=1)  # app channel still has 2 voters


# ---------------------------------------------------------------------------
# small pieces


def test_format_dev_addr_layout_and_bounds():
    assert format_dev_addr(2, 1) == b"\x02\x01\x00\x00"
    assert format_dev_addr(0, 0x010203) == b"\x00\x03\x02\x01"
    with pytest.raises(ValueError):
        format_dev_addr(0, 0)
    with pytest.raises(ValueError):
        format_dev_addr(0, 0x1000000)
    with pytest.raises(ValueError):
        format_dev_addr(256, 1)


def test_open_session_keeps_a_device_and_gives_the_next_its_own_slot():
    world = build_world(make_config(experiment=1))
    gw0 = world.gateways[0]
    first, second = world.devices[0], world.devices[2]  # both covered by gw0

    def join(device, dev_nonce):
        return gw0.core.open_session(device.dev_eui, dev_nonce, b"\x00\x00\x01", bytes(16), 0)

    address = join(first, b"\x00\x01").dev_addr
    assert address == format_dev_addr(0, 1)
    assert join(first, b"\x00\x02").dev_addr == address  # a rejoin keeps it
    assert gw0.core.registry[first.dev_eui].dev_addr == address
    assert join(second, b"\x00\x01").dev_addr == format_dev_addr(0, 2)


@pytest.mark.parametrize("mode", ["edge", "traditional"])
@pytest.mark.parametrize("experiment", [2, 3])
def test_bootstrap_addresses_are_the_creator_index_slots(mode, experiment):
    """The allocator gives a gateway's authorized devices the slots ordinal + 1, in order.

    The join server opens each bootstrap session as it opens a join's: it
    spends the DevNonce and shares the device's network session key.
    """
    world = app_world(mode=mode, experiment=experiment, n_devices=16, n_gateways=4)
    authorized = world.authorized_devices()
    assert len(authorized) == (16 if experiment == 2 else 8)
    for device in authorized:
        gw, ordinal = world.home(device.index)
        expected = format_dev_addr(gw.index, ordinal + 1)
        assert device.session.keys.dev_addr == expected
        join_server = world.join_server(gw)
        session = join_server.sessions[expected]
        assert session.context.dev_eui == device.dev_eui
        assert session.device_id == device.device_id
        assert session.context.nwk_s_key == device.session.keys.nwk_s_key
        spent = join_server.registry[device.dev_eui].spent_nonces
        assert session.context.dev_nonce in spent


def test_abp_device_keeps_its_address_when_it_joins():
    world = build_world(make_config(experiment=1, mode="traditional"))
    device, srv0 = world.devices[0], world.servers[0]
    dev_addr = format_dev_addr(0, ABP_COUNTER_MIN + 77)
    context = SessionContext(
        dev_eui=device.dev_eui,
        app_key=device.app_key.key,
        dev_addr=dev_addr,
        nwk_s_key=bytes(16),
        dev_nonce=b"\x00\x09",
        app_nonce=b"\x09\x08\x07",
    )
    srv0.abp_provision(context, device.device_id)
    device.begin_join()
    run_for(world, 2.0)
    assert device.state == "joined"
    assert device.session.keys.dev_addr == dev_addr
    assert srv0.core.sessions[dev_addr].context.nwk_s_key == device.session.keys.nwk_s_key


@pytest.mark.parametrize("mode", ["traditional", "edge"])
def test_join_skips_an_address_an_abp_device_holds(mode):
    """A join takes the prefix's first slot; ABP devices hold the top half's slots."""
    world = build_world(make_config(experiment=1, mode=mode))
    abp, joiner, srv0 = world.devices[0], world.devices[2], world.servers[0]  # both under gw0
    join_server = world.join_server(world.gateways[0])
    dev_addr = format_dev_addr(0, ABP_COUNTER_MIN + 1)
    nwk_s_key, app_s_key = derive_session_keys(
        abp.app_key, b"\x09\x08\x07", world.config.net_id, b"\x00\x09"
    )
    context = SessionContext(
        dev_eui=abp.dev_eui,
        app_key=abp.app_key.key,
        dev_addr=dev_addr,
        nwk_s_key=nwk_s_key,
        dev_nonce=b"\x00\x09",
        app_nonce=b"\x09\x08\x07",
    )
    srv0.abp_provision(context, abp.device_id)
    abp.install_session(dev_addr, nwk_s_key, app_s_key)
    run_for(world, 3.0)  # the ABP context commits
    joiner.begin_join()
    run_for(world, 3.0)

    assert joiner.state == "joined"
    assert joiner.session.keys.dev_addr == format_dev_addr(0, 1)
    assert join_server.sessions[joiner.session.keys.dev_addr].context.dev_eui == joiner.dev_eui
    assert srv0.core.sessions[dev_addr].context == context
    for node in world.replicas(KIND_NETWORK):
        tx = node.ledgers[KIND_NETWORK].query_context(dev_addr)
        assert tx.requester == srv0.entity_id
        assert context_metadata(tx.payload) == (dev_addr, abp.dev_eui)


def _abp_context(device, dev_addr: bytes) -> SessionContext:
    return SessionContext(
        dev_eui=device.dev_eui,
        app_key=device.app_key.key,
        dev_addr=dev_addr,
        nwk_s_key=bytes(16),
        dev_nonce=b"\x00\x09",
        app_nonce=b"\x09\x08\x07",
    )


def _live_addresses(world) -> dict[bytes, set[bytes]]:
    """Each address a live session holds, on any node or device -> the device EUIs
    of those sessions."""
    held: dict[bytes, set[bytes]] = {}
    for node in world.gateways + world.servers:
        for dev_addr, session in node.core.sessions.items():
            held.setdefault(dev_addr, set()).add(session.context.dev_eui)
    for device in world.devices:
        if device.session is not None:
            held.setdefault(device.session.keys.dev_addr, set()).add(device.dev_eui)
    return held


def test_an_abp_address_never_meets_the_next_join_at_an_edge_gateway():
    """An edge gateway cannot see a provisioned context before it commits, so ABP
    takes the top half of each prefix's counter, where no join address lies.  An
    address below it is refused with nothing kept; one in it and a join through
    the same gateway right after get different addresses."""
    world = build_world(make_config(experiment=1))
    abp, joiner, srv0 = world.devices[0], world.devices[2], world.servers[0]  # both under gw0
    with pytest.raises(ValueError, match="outside the ABP range"):
        srv0.abp_provision(_abp_context(abp, format_dev_addr(0, 1)), abp.device_id)
    assert srv0.core.sessions == {} and srv0.work_units == 0
    abp_addr = format_dev_addr(0, ABP_COUNTER_MIN)
    srv0.abp_provision(_abp_context(abp, abp_addr), abp.device_id)
    joiner.begin_join()  # at once: gw0 has not seen the ABP context
    run_for(world, 3.0)

    assert joiner.session.keys.dev_addr == format_dev_addr(0, 1)
    assert _live_addresses(world) == {
        abp_addr: {abp.dev_eui},
        format_dev_addr(0, 1): {joiner.dev_eui},
    }


@pytest.mark.parametrize("mode", ["edge", "traditional"])
def test_abp_refuses_an_address_no_gateway_serves(mode):
    """Refused at the call, before anything is served or published, not by every
    later downlink to the address."""
    world = build_world(make_config(mode=mode))  # two gateways: prefixes 0 and 1
    device, srv0 = world.devices[0], world.servers[0]
    context = _abp_context(device, format_dev_addr(9, ABP_COUNTER_MIN))
    with pytest.raises(ValueError, match="no gateway serves address 09000080"):
        srv0.abp_provision(context, device.device_id)
    assert srv0.core.sessions == {} and srv0.work_units == 0
    run_for(world, 3.0)
    assert all(node.ledgers[KIND_NETWORK].height == 0 for node in world.replicas(KIND_NETWORK))


# (device index, ABP counter above ABP_COUNTER_MIN or None for a join, seconds run after)
_abp_and_joins = st.lists(
    st.tuples(st.integers(0, 5), st.none() | st.integers(0, 3), st.sampled_from([0, 0.5, 3])),
    min_size=1,
    max_size=10,
)


@settings(max_examples=40, deadline=None)
@given(actions=_abp_and_joins)
def test_no_two_live_sessions_share_an_address_when_abp_and_joins_mix(actions):
    """ABP provisions at ``srv0`` and joins at the edge gateways, in any order and at
    any pace: every address a live session holds, anywhere, is one device's."""
    world = build_world(make_config(experiment=1, n_devices=6))
    srv0 = world.servers[0]
    for index, abp_offset, seconds in actions:
        device = world.devices[index]
        if abp_offset is None:
            device.begin_join()
        else:
            gw, _ = world.home(index)
            dev_addr = format_dev_addr(gw.index, ABP_COUNTER_MIN + abp_offset)
            try:
                srv0.abp_provision(_abp_context(device, dev_addr), device.device_id)
            except ValueError:
                assert dev_addr in _live_addresses(world)  # refused only when taken
            else:
                device.install_session(dev_addr, bytes(16), bytes(16))
        run_for(world, seconds)
    run_for(world, 5.0)
    assert all(len(euis) == 1 for euis in _live_addresses(world).values())


# (device index, DevNonce, signed with the device's own app key?)
_join_requests = st.lists(
    st.tuples(
        st.integers(0, 3), st.sampled_from([b"\x00\x01", b"\x00\x02", b"\x00\x03"]), st.booleans()
    ),
    min_size=1,
    max_size=12,
)


@pytest.mark.parametrize("mode", ["edge", "traditional"])
@settings(max_examples=30, deadline=None)
@given(requests=_join_requests)
def test_join_server_accepts_each_fresh_nonce_once_and_keeps_addresses(mode, requests):
    """Joins with replayed nonces or a wrong app key are filtered; addresses stay put."""
    world = build_world(make_config(experiment=1, mode=mode))
    for index, dev_nonce, right_key in requests:
        device = world.devices[index]
        app_key = device.app_key if right_key else RootKey(b"\x33" * 16)
        raw = build_join_request(app_key, device.app_eui, device.dev_eui, dev_nonce)
        world.engine.send(device.uplink, raw, len(raw))
    run_for(world, 4.0)

    nodes = world.gateways + world.servers
    fresh = {(index, dev_nonce) for index, dev_nonce, right_key in requests if right_key}
    assert sum(node.core.joins_accepted for node in nodes) == len(fresh)
    addresses = {}
    for node in nodes:
        for dev_addr, session in node.core.sessions.items():
            addresses.setdefault(session.context.dev_eui, set()).add(dev_addr)
    joined = {world.devices[index].dev_eui for index, _ in fresh}
    assert set(addresses) == joined
    assert all(len(held) == 1 for held in addresses.values())  # one address per device
    assert len(set.union(set(), *addresses.values())) == len(joined)  # none shared


@pytest.mark.parametrize("mode", ["edge", "traditional"])
def test_handle_rejects_unknown_payload_types(mode):
    world = app_world(mode=mode)
    nodes = (world.gateways[0], world.servers[0], world.devices[0])
    for node in nodes:
        for payload in ("text", 7, object(), bytearray(b"\x40")):
            with pytest.raises(TypeError):
                node.handle(payload)
    # each kind of node handles only its own message types
    notice = UplinkNotice(dev_addr=b"\x00\x01\x00\x00", fcnt=0, payload=b"x" * 20)
    with pytest.raises(TypeError):
        world.gateways[0].handle(notice)
    with pytest.raises(TypeError):
        world.servers[0].handle(DownlinkData(dev_addr=b"\x00\x01\x00\x00", fcnt=0, payload=b"x"))
    with pytest.raises(TypeError):
        world.devices[0].handle(CommitNotice(channel="network", block_hash=b"\x00" * 32))


def test_backhaul_message_wire_sizes():
    addr = b"\x00\x01\x00\x00"
    assert UplinkNotice(dev_addr=addr, fcnt=0, payload=b"x" * 20).wire_size() == 29
    assert FrameForward(gateway_id="gw0", frame=b"\x00" * 32).wire_size() == 43
    assert DownlinkData(dev_addr=addr, fcnt=0, payload=b"x" * 20).wire_size() == 29
    assert DownlinkFrameForward(frame=b"\x00" * 17, device_id="dev0000").wire_size() == 28
    assert CommitNotice(channel="network", block_hash=b"\x00" * 32).wire_size() == 34
    # a 104-byte transaction (4-byte requester, 20-byte payload) in a 294-byte block
    tx = Transaction(requester="srv0", signature=bytes(64), timestamp_ms=1, payload=b"x" * 20)
    block = Block(zeta=3, tau_ms=1, merkle_root=bytes(32), prev_hash=bytes(32), txs=(tx, tx))
    assert TxSubmit(channel="application", tx=tx).wire_size() == 108
    assert BlockAnnounce(channel="application", block=block).wire_size() == 300
    assert BlockProposal(channel="application", proposer="srv1", block=block).wire_size() == 306


@st.composite
def _transactions(draw):
    return Transaction(
        requester=draw(st.text(st.sampled_from("aZ0-é€节🛰"), max_size=12)),
        signature=draw(st.binary(min_size=64, max_size=64)),
        timestamp_ms=draw(st.integers(0, 2**64 - 1)),
        payload=draw(st.binary(min_size=1, max_size=600)),
    )


@settings(max_examples=100, deadline=None)
@given(
    txs=st.lists(_transactions(), min_size=1, max_size=5),
    merkle_root=st.binary(max_size=64),
    proposer=st.text(st.sampled_from("s1é€🛰"), max_size=6),
)
def test_wire_lengths_are_the_serialized_lengths(txs, merkle_root, proposer):
    """Message sizes come from field lengths; they must be what serializing gives."""
    block = Block(zeta=7, tau_ms=9, merkle_root=merkle_root, prev_hash=bytes(32), txs=tuple(txs))
    for tx in txs:
        assert tx.wire_len() == len(tx.to_bytes())
        assert TxSubmit(channel="c", tx=tx).wire_size() == 4 + len(tx.to_bytes())
    assert block.wire_len() == len(block.to_bytes())
    assert BlockAnnounce(channel="c", block=block).wire_size() == 6 + len(block.to_bytes())
    proposal = BlockProposal(channel="c", proposer=proposer, block=block)
    assert proposal.wire_size() == 8 + len(proposer.encode("utf-8")) + len(block.to_bytes())


def test_block_from_unregistered_requester_counts_as_invalid():
    """An announced block signed by an unknown entity is rejected, not a crash."""
    world = app_world()
    srv1 = world.servers[1]
    ledger = srv1.ledgers[KIND_APPLICATION]
    height, tip = ledger.height, ledger.tip
    tx = make_app_tx(world.key_directory, generate_keypair("srv9", 1), b"payload", 1)
    block = assemble_block([tx], height, 1, tip)
    srv1.handle(BlockAnnounce(channel=KIND_APPLICATION, block=block))
    assert srv1.invalid_blocks == 1
    assert ledger.height == height and ledger.tip is tip


def test_blocks_ahead_of_the_chain_are_validated_before_held():
    """Only a block that could ever be appended waits in the reorder buffer."""
    world = app_world()
    srv1 = world.servers[1]
    rogue = generate_keypair("srv9", 1)
    for zeta in range(1000, 1050):
        tx = make_app_tx(world.key_directory, rogue, b"payload", zeta)
        block = assemble_block([tx], zeta, 1, None)
        srv1.handle(BlockAnnounce(channel=KIND_APPLICATION, block=block))
    assert srv1.invalid_blocks == 50
    assert srv1.channels[KIND_APPLICATION].early == {}

    # a valid block that arrives early is still held until its predecessor commits
    host = world.servers[0]
    first = assemble_block([make_app_tx(world.key_directory, host.keypair, b"first", 1)], 0, 1, None)
    second = assemble_block(
        [make_app_tx(world.key_directory, host.keypair, b"second", 2)], 1, 2, first
    )
    srv1.handle(BlockAnnounce(channel=KIND_APPLICATION, block=second))
    assert list(srv1.channels[KIND_APPLICATION].early) == [1]
    srv1.handle(BlockAnnounce(channel=KIND_APPLICATION, block=first))
    assert srv1.ledgers[KIND_APPLICATION].blocks == [first, second]
    assert srv1.channels[KIND_APPLICATION].early == {}
    assert srv1.invalid_blocks == 50


def test_a_long_chain_announced_in_reverse_commits_whole():
    """Held successors commit in a loop, so no chain length reaches the recursion limit."""
    world = app_world()
    host, srv1 = world.servers[0], world.servers[1]
    blocks = []
    for zeta in range(1200):
        tx = make_app_tx(world.key_directory, host.keypair, b"reading %d" % zeta, zeta)
        blocks.append(assemble_block([tx], zeta, zeta, blocks[-1] if blocks else None))
    for block in reversed(blocks):
        srv1.handle(BlockAnnounce(channel=KIND_APPLICATION, block=block))
    assert srv1.ledgers[KIND_APPLICATION].height == 1200
    assert srv1.channels[KIND_APPLICATION].early == {}
    assert srv1.invalid_blocks == 0


# ---------------------------------------------------------------------------
# hostile backhaul and radio input


def _app_txs(node):
    return [tx for block in node.ledgers[KIND_APPLICATION].blocks for tx in block.txs]


@pytest.mark.parametrize("sender", ["gw9", "srv1"])
def test_frame_forward_only_from_a_wired_gateway(sender):
    """A frame forwarded under any id but a wired gateway's is filtered before it is parsed."""
    world = app_world(mode="traditional")
    device, srv0 = world.devices[0], world.servers[0]
    session = device.session
    uplink = build_data_frame(session.keys, 0, 1, b"\x01" * 20, DIR_UP)
    join = build_join_request(device.app_key, device.app_eui, device.dev_eui, b"\x07\x07")
    for frame in (uplink, join):
        srv0.handle(FrameForward(gateway_id=sender, frame=frame))
    run_for(world, 1.0)
    assert srv0.filtered_frames == 2
    assert (srv0.work_units, srv0.core.acks_sent, srv0.core.joins_accepted) == (0, 0, 0)
    assert srv0.core.sessions[session.keys.dev_addr].last_fcnt_up == -1
    assert b"\x07\x07" not in srv0.core.registry[device.dev_eui].spent_nonces  # never spent
    assert world.engine.events_processed == 0


@pytest.mark.parametrize(
    "mode, fcnt, payload_len",
    [
        pytest.param("traditional", 0, 20, id="gateway-without-sessions"),
        pytest.param("edge", 0, MAX_FRM_PAYLOAD + 1, id="payload-no-frame-carries"),
        pytest.param("edge", -1, 8, id="counter-below-16-bits-edge"),
        pytest.param("edge", 0x10000, 8, id="counter-above-16-bits-edge"),
        pytest.param("traditional", -1, 8, id="counter-below-16-bits-traditional"),
        pytest.param("traditional", 0x10000, 8, id="counter-above-16-bits-traditional"),
    ],
)
def test_gateway_drops_downlink_data_it_cannot_frame(mode, fcnt, payload_len):
    """A gateway drops downlink data it has no session for or cannot frame.

    A traditional gateway serves no sessions, and no frame carries 243
    payload bytes or a counter outside 16 bits.
    """
    world = app_world(mode=mode)
    device, gw0 = world.devices[0], world.gateways[0]
    payload = b"\x01" * payload_len
    gw0.handle(DownlinkData(dev_addr=device.session.keys.dev_addr, fcnt=fcnt, payload=payload))
    run_for(world, 1.0)
    assert device.received_downlinks == []
    assert world.engine.events_processed == 0


@pytest.mark.parametrize("mode", ["edge", "traditional"])
@pytest.mark.parametrize(
    "addr_len, fcnt, payload_len",
    [
        (DEV_ADDR_LEN, -1, 8),
        (DEV_ADDR_LEN, 0x10000, 8),
        (DEV_ADDR_LEN, 0, MAX_FRM_PAYLOAD + 1),
        (0, 0, 8),
        (3, 0, 8),
    ],
    ids=[
        "counter-below-16-bits",
        "counter-above-16-bits",
        "payload-no-frame-carries",
        "empty-address",
        "three-byte-address",
    ],
)
def test_server_downlink_rejects_what_no_frame_carries(mode, addr_len, fcnt, payload_len):
    """The server raises at the call, before it charges work or sends anything."""
    world = app_world(mode=mode)
    device, srv0 = world.devices[0], world.servers[0]
    with pytest.raises(ValueError, match="out of range|exceeds|address must be"):
        srv0.downlink(device.session.keys.dev_addr[:addr_len], b"\x01" * payload_len, fcnt)
    assert srv0.work_units == 0
    assert all(link.bytes_sent == 0 for link in world.engine.links.values())
    run_for(world, 1.0)
    assert device.received_downlinks == []
    assert world.engine.events_processed == 0


@pytest.mark.parametrize("mode", ["edge", "traditional"])
def test_uplink_with_an_empty_payload_is_filtered(mode):
    """A MIC-valid uplink with nothing to put on a ledger gets no ACK and no transaction."""
    world = app_world(mode=mode)
    device, srv0 = world.devices[0], world.servers[0]
    session = device.session
    raw = build_data_frame(session.keys, 0, 1, b"", DIR_UP)
    world.engine.send(device.uplink, raw, len(raw))
    srv0.handle(UplinkNotice(dev_addr=session.keys.dev_addr, fcnt=0, payload=b""))
    run_for(world, 4.0)
    controller = world.join_server(world.gateways[0])
    assert controller.acks_sent == 0
    assert controller.sessions[session.keys.dev_addr].last_fcnt_up == -1
    assert srv0.ingested == 0 and _app_txs(srv0) == []
    assert sum(node.filtered_frames for node in world.gateways + world.servers) == 2


def test_tx_submit_repeated_while_queued_commits_once():
    world = app_world()
    srv1 = world.servers[1]
    tx = make_app_tx(world.key_directory, srv1.keypair, b"payload", 1)
    for _ in range(2):
        world.servers[0].handle(TxSubmit(channel=KIND_APPLICATION, tx=tx))
    run_for(world, 4.0)
    for srv in world.servers:
        assert _app_txs(srv) == [tx]


def test_forged_tx_submit_does_not_sink_the_honest_batch():
    """The orderer judges each submitted transaction on its own, as a replica would."""
    world = app_world()
    srv0, srv1 = world.servers
    honest = [
        make_app_tx(world.key_directory, srv1.keypair, b"payload%d" % k, k) for k in range(5)
    ]
    unregistered = make_app_tx(world.key_directory, generate_keypair("srv9", 1), b"forged", 9)
    not_a_server = make_app_tx(world.key_directory, world.gateways[0].keypair, b"forged", 9)
    for tx in honest[:2] + [unregistered] + honest[2:4] + [not_a_server] + honest[4:]:
        srv0.handle(TxSubmit(channel=KIND_APPLICATION, tx=tx))
    run_for(world, 4.0)
    for srv in world.servers:
        assert _app_txs(srv) == honest
        assert srv.invalid_blocks == 0


def _wire_messages(world) -> dict:
    """A strategy per wire message type, over pools mixing real and bogus values.

    Frame counters reach one past each end of their 16-bit wire width, other
    integer fields stay within theirs, and everything else may be outside
    anything the node expects.
    """
    device, gw0, srv0 = world.devices[0], world.gateways[0], world.servers[0]
    session = device.session
    reading = device.payload_plaintext(0)
    ct = encrypt_payload(session.keys, 0, DIR_UP, reading)
    real_frames = [
        build_data_frame(session.keys, 0, 1, ct, DIR_UP),
        build_data_frame(session.keys, 1, 1, b"", DIR_UP),
        build_join_request(device.app_key, device.app_eui, device.dev_eui, b"\x00\x07"),
    ]
    frames = st.sampled_from(real_frames) | st.binary(max_size=300)
    payloads = st.sampled_from([b"", ct]) | st.binary(max_size=300)
    ids = st.sampled_from(
        [node.entity_id for node in world.gateways + world.servers]
        + ["gw9", "srv9", device.device_id]
    )
    channels = st.sampled_from([KIND_NETWORK, KIND_APPLICATION, "bogus"])
    addrs = st.sampled_from(
        [session.keys.dev_addr, format_dev_addr(1, 1), b"\x00\x99\x99\x99", b"\xff" * 4]
    )
    fcnts = st.integers(-1, 0x10000)

    rogue = generate_keypair("srv9", world.config.seed)
    signers = (srv0.keypair, gw0.keypair, rogue)
    directory = world.key_directory
    context = next(iter(world.join_server(gw0).sessions.values())).context
    rng = random.Random(0)
    txs = st.sampled_from(
        [make_app_tx(directory, kp, b"reading", 1) for kp in signers]
        + [make_network_tx(directory, kp, context, 1, rng) for kp in signers]
    )
    tip = srv0.ledgers[KIND_NETWORK].tip
    blocks = st.builds(
        lambda batch, zeta, chained: assemble_block(batch, zeta, 1, tip if chained else None),
        st.lists(txs, min_size=1, max_size=3),
        st.sampled_from([0, 1, 2, 1000]),
        st.booleans(),
    )
    digests = blocks.map(block_hash) | st.binary(min_size=32, max_size=32)

    @st.composite
    def votes(draw):
        digest, verdict = draw(digests), draw(st.booleans())
        signature = draw(
            st.sampled_from([make_vote(directory, kp, digest, verdict) for kp in signers])
            | st.binary(min_size=64, max_size=64)
        )
        return VoteMessage(draw(channels), draw(ids), digest, verdict, signature)

    return {
        bytes: frames,
        UplinkNotice: st.builds(UplinkNotice, dev_addr=addrs, fcnt=fcnts, payload=payloads),
        FrameForward: st.builds(FrameForward, gateway_id=ids, frame=frames),
        DownlinkData: st.builds(DownlinkData, dev_addr=addrs, fcnt=fcnts, payload=payloads),
        DownlinkFrameForward: st.builds(DownlinkFrameForward, frame=frames, device_id=ids),
        TxSubmit: st.builds(TxSubmit, channel=channels, tx=txs),
        BlockAnnounce: st.builds(BlockAnnounce, channel=channels, block=blocks),
        BlockProposal: st.builds(BlockProposal, channel=channels, proposer=ids, block=blocks),
        VoteMessage: votes(),
        CommitNotice: st.builds(CommitNotice, channel=channels, block_hash=digests),
    }


@pytest.mark.parametrize("mode", ["edge", "traditional"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_no_wire_message_crashes_a_gateway_or_server(mode, data):
    """Any short run of wire messages, delivered to gateways and servers, raises nothing."""
    world = app_world(mode=mode)
    messages = _wire_messages(world)
    nodes = world.gateways + world.servers
    for _ in range(data.draw(st.integers(1, 6), label="messages")):
        node = data.draw(st.sampled_from(nodes), label="to")
        # every type the node handles, except the timer it sets only for itself
        kinds = sorted(set(type(node)._HANDLERS) - {OrdererTick}, key=lambda kind: kind.__name__)
        message = data.draw(messages[data.draw(st.sampled_from(kinds))], label="message")
        world.engine.schedule(data.draw(st.integers(0, US_PER_S)), node.entity_id, message)
    run_for(world, 4.0)  # past one batch timeout, so queued transactions reach a block
