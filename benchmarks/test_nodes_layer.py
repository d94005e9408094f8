"""Micro-benchmarks of the node state machines (pytest-benchmark).

    python3 -m pytest benchmarks --benchmark-only

Outside the Tier-1 ``testpaths``; each benchmark also checks its result, so
a fast wrong answer does not pass.  The device cycle is one confirmed
reading on a bare engine, from the device's side only: ``send_uplink``
encrypts, frames and sends a 20-byte reading and arms its ACK timer, then
the device handles the network controller's ACK, which completes the
request and cancels the timer.  The ACKs are built ahead of the timed body,
and nothing runs the engine, so no other node's work is timed.

The join cycle is one over-the-air join through an edge gateway on a bare
engine, both sides timed: ``begin_join`` builds and sends the request, the
gateway's join server checks it, opens the session, seals and signs its
context for the network ledger and sends the accept, and the device opens
the accept and installs the session.  The gateway is the network ledger's
only maintainer and its solo orderer, so every ``BATCH`` joins cut a block
that it validates and appends; the engine runs only long enough to deliver
the two frames of each round.

The join server's cycle is the same join on the gateway's ``JoinServer``
alone, with no engine and no ledger write: register the device, then turn
each request's bytes, one fresh DevNonce each, into its accept's bytes.
"""

import random
import struct

from loraledger.consensus import BatchConfig, ConsensusConfig
from loraledger.crypto import KeyDirectory, ROLE_GATEWAY, RootKey, generate_keypair
from loraledger.frames import (
    DIR_DOWN,
    SessionKeys,
    build_data_frame,
    build_join_request,
    open_join_accept,
    parse_frame,
)
from loraledger.joinserver import JoinServer, format_dev_addr
from loraledger.ledger import KIND_APPLICATION, KIND_NETWORK, Ledger
from loraledger.metrics import MetricsRecorder
from loraledger.nodes import BEHAVIOR_UPLINK_LOOP, MODE_EDGE, DeviceProfile, EndDevice, Gateway
from loraledger.simnet import LINK_CLASS_AIR, Engine, US_PER_S

DEV_ADDR = bytes.fromhex("01000001")
NWK_S_KEY = bytes(range(16))
APP_S_KEY = bytes(range(16, 32))
PROFILE = DeviceProfile(BEHAVIOR_UPLINK_LOOP, 10 * US_PER_S, 20 * US_PER_S, US_PER_S, 3 * US_PER_S)
CYCLES = 256
# the controller's ACKs: port 0, no payload, one down counter each
ACKS = [
    build_data_frame(SessionKeys(DEV_ADDR, NWK_S_KEY), fcnt, 0, b"", DIR_DOWN)
    for fcnt in range(CYCLES)
]


def _device():
    engine = Engine(1)
    engine.register("gw0", lambda payload: None)
    device = EndDevice(
        "dev0", 0, bytes(8), bytes(8), RootKey(bytes(16)), engine, PROFILE, MetricsRecorder()
    )
    link = engine.add_link("dev0", "gw0", LINK_CLASS_AIR, (1, 1))
    device.attach_uplink(link)
    device.install_session(DEV_ADDR, NWK_S_KEY, APP_S_KEY)
    return (device,), {}


def uplink_cycles(device: EndDevice) -> EndDevice:
    for ack in ACKS:
        device.send_uplink()
        device.handle(ack)
    return device


def test_device_uplink_cycle(benchmark):
    device = benchmark.pedantic(uplink_cycles, setup=_device, rounds=50)
    statuses = [record.status for record in device.recorder.by_kind("uplink")]
    assert statuses == ["completed"] * CYCLES
    assert device.session.fcnt_up == CYCLES
    assert device.engine.links["dev0->gw0"].delivered_msgs == CYCLES
    assert len(device.engine._cancelled) == CYCLES  # every ACK cancelled its timer


JOINS = 64
BATCH = 8
DEV_EUI = bytes(range(1, 9))
APP_KEY = bytes(range(32, 48))
NET_ID = b"\x00\x00\x13"


def _join_world():
    engine = Engine(1)
    directory = KeyDirectory()
    keypair = generate_keypair("gw0", 1)
    directory.add("gw0", keypair.public_key, ROLE_GATEWAY)
    consensus = ConsensusConfig(
        mode="solo",
        p=0,
        batch=BatchConfig(max_message_count=BATCH),
        orderer_hosts={KIND_NETWORK: "gw0", KIND_APPLICATION: "gw0"},
        maintainers={KIND_NETWORK: ("gw0",), KIND_APPLICATION: ()},
    )
    gateway = Gateway("gw0", 0, MODE_EDGE, keypair, engine, directory, consensus, net_id=NET_ID)
    app_key = RootKey(APP_KEY)  # one per world, shared by the device and its registration
    device = EndDevice("dev0", 0, DEV_EUI, bytes(8), app_key, engine, PROFILE, MetricsRecorder())
    air = (1, 1)
    device.attach_uplink(engine.add_link("dev0", "gw0", LINK_CLASS_AIR, air))
    gateway.add_coverage(DEV_EUI, "dev0", engine.add_link("gw0", "dev0", LINK_CLASS_AIR, air))
    gateway.core.register_device(DEV_EUI, app_key, "dev0")
    return (device, gateway), {}


def join_cycles(device: EndDevice, gateway: Gateway):
    engine = device.engine
    for _ in range(JOINS):
        device.begin_join()
        engine.run_until(engine.now_us + 2)  # the request's hop, then the accept's
    return device, gateway


def test_join_cycle(benchmark):
    device, gateway = benchmark.pedantic(join_cycles, setup=_join_world, rounds=10)
    statuses = [record.status for record in device.recorder.by_kind("join")]
    assert statuses == ["completed"] * JOINS
    assert device.state == "joined"
    # the join server keeps a device's address across rejoins
    assert device.session.keys.dev_addr == format_dev_addr(0, 1)
    assert gateway.core.joins_accepted == JOINS
    session = gateway.core.sessions[format_dev_addr(0, 1)]
    assert session.keys.nwk_s_key == device.session.keys.nwk_s_key
    network = gateway.ledgers[KIND_NETWORK]
    assert network.height == JOINS // BATCH
    # the world state holds the device's last join, the tip's last transaction
    assert network.query_context(format_dev_addr(0, 1)) is network.tip.txs[-1]


REQUESTS = [
    build_join_request(RootKey(APP_KEY), bytes(8), DEV_EUI, struct.pack("<H", nonce))
    for nonce in range(JOINS)
]


def _join_server():
    keypair = generate_keypair("gw0", 1)
    directory = KeyDirectory()
    directory.add("gw0", keypair.public_key, ROLE_GATEWAY)
    core = JoinServer("gw0", keypair, directory, NET_ID, random.Random(1), Ledger(KIND_NETWORK))
    return (core,), {}


def core_join_cycles(core: JoinServer) -> list:
    core.register_device(DEV_EUI, RootKey(APP_KEY), "dev0")
    return [core.join(parse_frame(request), 0) for request in REQUESTS]


def test_join_server_join_cycle(benchmark):
    accepted = benchmark.pedantic(core_join_cycles, setup=_join_server, rounds=20)
    app_key = RootKey(APP_KEY)
    for (context, device_id, accept), request in zip(accepted, REQUESTS):
        assert device_id == "dev0" and context.dev_nonce == parse_frame(request).dev_nonce
        # the join server keeps a device's address across rejoins
        assert open_join_accept(accept, app_key).dev_addr == context.dev_addr
        assert context.dev_addr == format_dev_addr(0, 1)
    assert len(accepted) == JOINS
