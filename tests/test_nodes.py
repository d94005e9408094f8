"""End-to-end node behavior: joins, uplinks, filtering, downlinks, handover."""

import struct

import pytest

from loraledger.crypto import derive_session_keys
from loraledger.frames import (
    DIR_DOWN,
    DIR_UP,
    build_data_frame,
    build_join_request,
    encrypt_payload,
    serialize_frame,
)
from loraledger.harness import bootstrap_sessions, build_world
from loraledger.ledger import KIND_APPLICATION, KIND_NETWORK, SessionContext
from loraledger.nodes import (
    CommitNotice,
    DownlinkData,
    DownlinkFrameForward,
    FrameForward,
    JoinState,
    UplinkNotice,
    format_dev_addr,
)
from loraledger.scenario import ConfigError, build_config
from loraledger.simnet import US_PER_S, Engine


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
    addr = device.session.dev_addr
    assert addr == format_dev_addr(0, 1)
    assert gw0.joins_accepted == 1
    # the device and the join server independently derived the same network key
    assert gw0.context_cache[addr].nwk_s_key == device.session.nwk_s_key
    record = world.recorder.by_kind("join")[0]
    assert record.status == "completed"
    assert record.latency_us == 800_000  # two fixed 400 ms air hops

    # the accept raced ahead of consensus: context still pending at 2 s
    assert addr in gw0.pending_contexts
    run_for(world, 3.0)
    assert addr not in gw0.pending_contexts
    for node in world.gateways + world.servers:
        ledger = node.ledgers[KIND_NETWORK]
        assert ledger.height == 1
        entry = ledger.query_context(addr)
        assert entry is not None and entry.requester == "gw0"

    # the fresh session carries an uplink end to end
    device.send_uplink()
    run_for(world, 4.0)
    uplink = world.recorder.by_kind("uplink")[0]
    assert uplink.status == "completed"
    expected_ct = encrypt_payload(
        device.session.app_s_key, addr, 0, DIR_UP, device.payload_plaintext(0)
    )
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
    frame = build_join_request(b"\x11" * 16, device.app_eui, b"\xff" * 8, b"\x00\x01")
    raw = serialize_frame(frame)
    world.engine.send(device.uplink, raw, len(raw))
    run_for(world, 1.0)
    gw0 = world.gateways[0]
    assert gw0.filtered_frames == 1
    assert gw0.work_units == 1  # parse only; no MIC attempt without a registration
    assert gw0.joins_accepted == 0


def test_edge_join_bad_mic_filtered():
    world = build_world(make_config(experiment=1))
    device = world.devices[0]
    frame = build_join_request(b"\x22" * 16, device.app_eui, device.dev_eui, b"\x00\x02")
    raw = serialize_frame(frame)
    world.engine.send(device.uplink, raw, len(raw))
    run_for(world, 1.0)
    gw0 = world.gateways[0]
    assert gw0.filtered_frames == 1
    assert gw0.work_units == 3  # parse + failed MIC
    assert gw0.joins_accepted == 0


def test_edge_join_nonce_replay_filtered():
    """Replaying a captured join request must not mint a second accept."""
    world = build_world(make_config(experiment=1))
    device = world.devices[0]
    gw0 = world.gateways[0]
    device.begin_join()
    run_for(world, 1.0)
    assert device.state == "joined"
    replay = build_join_request(
        device.app_key, device.app_eui, device.dev_eui, device._join_dev_nonce
    )
    raw = serialize_frame(replay)
    world.engine.send(device.uplink, raw, len(raw))
    run_for(world, 1.0)
    assert gw0.filtered_frames == 1
    assert gw0.joins_accepted == 1
    assert gw0.work_units == 9 + 3  # replay pays parse + MIC before the nonce check


def test_traditional_join_roundtrip():
    """Joins traverse the backhaul both ways and settle on the server ledgers."""
    world = build_world(make_config(experiment=1, mode="traditional"))
    device = world.devices[0]
    srv0 = world.servers[0]
    device.begin_join()
    run_for(world, 2.0)

    assert device.state == "joined"
    assert device.session.dev_addr == format_dev_addr(0, 1)
    assert srv0.joins_accepted == 1
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
    frame = build_join_request(b"\x33" * 16, device.app_eui, b"\xee" * 8, b"\x00\x03")
    raw = serialize_frame(frame)
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
    addr = device.session.dev_addr

    device.send_uplink()
    run_for(world, 1.0)
    assert gw0.forwarded_uplinks == 1
    assert gw0.acks_sent == 1
    assert srv0.ingested == 1
    assert gw0.work_units == 7
    assert srv0.work_units == 3
    assert srv1.work_units == 0
    record = world.recorder.by_kind("uplink")[0]
    assert record.status == "completed"
    assert record.latency_us == 800_000

    run_for(world, 3.0)
    expected_ct = encrypt_payload(
        device.session.app_s_key, addr, 0, DIR_UP, device.payload_plaintext(0)
    )
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
    ct = encrypt_payload(session.app_s_key, session.dev_addr, 0, DIR_UP, b"\x00" * 20)
    frame = build_data_frame(session.nwk_s_key, session.dev_addr, 0, 1, ct, DIR_UP)
    raw = bytearray(serialize_frame(frame))
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
    ct = encrypt_payload(session.app_s_key, session.dev_addr, 0, DIR_UP, b"\x11" * 20)
    dup = build_data_frame(session.nwk_s_key, session.dev_addr, 0, 1, ct, DIR_UP)
    raw = serialize_frame(dup)
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
    assert srv0.acks_sent == 1
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


def test_ack_settles_oldest_pending_uplink():
    world = app_world()
    device = world.devices[0]
    device.send_uplink()
    device.send_uplink()
    run_for(world, 1.0)
    records = world.recorder.by_kind("uplink")
    assert [r.status for r in records] == ["completed", "completed"]
    assert device._pending_uplinks == {}
    assert device.session.last_fcnt_down == 1
    assert world.gateways[0].next_fcnt_down[device.session.dev_addr] == 2


def test_uplink_timeout_marks_failure():
    world = app_world(loss_rate=0.0, severed_gateways=(0,))
    device = world.devices[0]
    device.send_uplink()
    run_for(world, 31.0)
    record = world.recorder.by_kind("uplink")[0]
    assert record.status == "failed"
    assert record.latency_us == 30 * US_PER_S


def test_device_stops_at_counter_exhaustion():
    world = app_world()
    device = world.devices[0]
    device.session.fcnt_up = 0x10000
    device.send_uplink()
    assert device.skipped_sends == 1
    assert world.recorder.by_kind("uplink") == []


# ---------------------------------------------------------------------------
# downlinks


def test_edge_downlink_payload_only_to_gateway():
    """The server ships 29 bytes; the gateway builds and tags the frame."""
    world = app_world()
    device = world.devices[0]
    gw0, srv0 = world.gateways[0], world.servers[0]
    addr = device.session.dev_addr
    plaintext = b"actuate:\x01\x02"
    fcnt = srv0.reserve_fcnt_down(addr)
    assert fcnt == 0
    ct = encrypt_payload(device.session.app_s_key, addr, fcnt, DIR_DOWN, plaintext)
    srv0.downlink(addr, ct, fcnt)
    run_for(world, 1.0)

    assert device.received_downlinks == [plaintext]
    assert srv0.work_units == 1  # context existence check only
    assert gw0.work_units == 4  # query + frame build
    assert world.engine.links["srv0->gw0"].bytes_sent == 9 + len(ct)

    # the gateway's downlink counter moved past the pushed frame, so ACKs still work
    device.send_uplink()
    run_for(world, 1.0)
    assert world.recorder.by_kind("uplink")[0].status == "completed"


def test_traditional_downlink_full_frame():
    world = app_world(mode="traditional")
    device = world.devices[0]
    srv0 = world.servers[0]
    addr = device.session.dev_addr
    plaintext = b"actuate:\x03\x04"
    fcnt = srv0.reserve_fcnt_down(addr)
    ct = encrypt_payload(device.session.app_s_key, addr, fcnt, DIR_DOWN, plaintext)
    srv0.downlink(addr, ct, fcnt)
    run_for(world, 1.0)
    assert device.received_downlinks == [plaintext]
    assert srv0.work_units == 4  # query + frame build happen centrally
    assert world.engine.links["srv0->gw0"].bytes_sent == 11 + 12 + len(ct)


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
    stray = build_data_frame(session.nwk_s_key, other_addr, 0, 1, b"\x22" * 8, DIR_DOWN)
    device._on_air_frame(serialize_frame(stray))
    assert device.received_downlinks == []

    ct = encrypt_payload(session.app_s_key, session.dev_addr, 3, DIR_DOWN, b"fresh!")
    good = build_data_frame(session.nwk_s_key, session.dev_addr, 3, 1, ct, DIR_DOWN)
    device._on_air_frame(serialize_frame(good))
    assert device.received_downlinks == [b"fresh!"]
    assert session.last_fcnt_down == 3

    device._on_air_frame(serialize_frame(good))  # counter replay
    assert device.received_downlinks == [b"fresh!"]

    raw = bytearray(serialize_frame(good))
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
    dev_addr = format_dev_addr(0, 77)
    nwk_s_key, app_s_key = derive_session_keys(
        device.app_key, b"\x09\x08\x07", world.config.net_id, b"\x00\x09"
    )
    context = SessionContext(
        dev_eui=device.dev_eui,
        app_key=device.app_key,
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
    dev_addr = format_dev_addr(0, 50)

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
    world = app_world()
    device = world.devices[0]
    gw0, gw1 = world.gateways[0], world.gateways[1]
    engine = world.engine
    up = engine.add_link(
        "handover:dev0000->gw1", "dev0000", "gw1", "lora-air", _fixed_air(), loss_rate=0.0
    )
    down = engine.add_link(
        "handover:gw1->dev0000", "gw1", "dev0000", "lora-air", _fixed_air(), loss_rate=0.0
    )
    device.attach_uplink(up)
    gw1.add_coverage(device.dev_eui, device.device_id, down)

    device.send_uplink()
    run_for(world, 1.0)
    assert gw1.filtered_frames == 1  # envelope on chain, but sealed for gw0
    assert gw1.work_units == 2

    gw1.receive_key_handover(gw0.entity_id, gw0.keypair.private_key)
    device.send_uplink()
    run_for(world, 1.0)
    assert gw1.forwarded_uplinks == 1
    assert world.servers[0].ingested == 1
    # the ACK settles the oldest outstanding request, so exactly one completes
    records = world.recorder.by_kind("uplink")
    assert sorted(r.status for r in records) == ["completed", "inflight"]
    assert len(device._pending_uplinks) == 1


def _fixed_air():
    from loraledger.simnet import LatencyModel, US_PER_MS

    return LatencyModel.fixed(400 * US_PER_MS)


# ---------------------------------------------------------------------------
# confidentiality of application data

SCAN_SKIP = (Engine,)


def _collect_bytes(root):
    """Every bytes object reachable through plain containers and our objects."""
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
            stack.extend(vars(obj).values())
    return found


def test_infrastructure_never_holds_app_plaintext_or_key():
    """Neither the reading nor the application session key exists off-device."""
    world = app_world()
    device = world.devices[0]
    device.send_uplink()
    run_for(world, 4.0)
    assert world.servers[0].ledgers[KIND_APPLICATION].height == 1

    plaintext = device.payload_plaintext(0)
    app_s_key = device.session.app_s_key
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


def test_join_state_bookkeeping():
    js = JoinState()
    js.register(b"\x01" * 8, ("key", "dev"))
    assert js.lookup(b"\x01" * 8) == ("key", "dev")
    assert js.lookup(b"\x02" * 8) is None
    assert js.nonce_fresh(b"\x01" * 8, b"\x00\x01")
    assert not js.nonce_fresh(b"\x01" * 8, b"\x00\x01")
    assert js.nonce_fresh(b"\x01" * 8, b"\x00\x02")

    first = js.allocate(b"\x01" * 8, 3)
    assert first == format_dev_addr(3, 1)
    assert js.allocate(b"\x01" * 8, 3) == first  # rejoin keeps the address
    assert js.allocate(b"\x02" * 8, 3) == format_dev_addr(3, 2)
    js.reserve(5, 10)
    assert js.allocate(b"\x03" * 8, 5) == format_dev_addr(5, 11)


@pytest.mark.parametrize("mode", ["edge", "traditional"])
def test_handle_rejects_unknown_payload_types(mode):
    world = app_world(mode=mode)
    nodes = (world.gateways[0], world.servers[0], world.devices[0])
    for node in nodes:
        for payload in ("text", 7, object()):
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
