"""Micro-benchmarks of the node state machines (pytest-benchmark).

    python3 -m pytest benchmarks --benchmark-only

Outside the Tier-1 ``testpaths``; each benchmark also checks its result, so
a fast wrong answer does not pass.  The device cycle is one confirmed
reading on a bare engine, from the device's side only: ``send_uplink``
encrypts, frames and sends a 20-byte reading and arms its ACK timer, then
the device handles the network controller's ACK, which completes the
request and cancels the timer.  The ACKs are built ahead of the timed body,
and nothing runs the engine, so no other node's work is timed.
"""

from loraledger.frames import DIR_DOWN, SessionKeys, build_data_frame
from loraledger.metrics import MetricsRecorder
from loraledger.nodes import BEHAVIOR_UPLINK_LOOP, DeviceProfile, EndDevice
from loraledger.simnet import LINK_CLASS_AIR, Engine, LatencyModel, US_PER_S

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
        "dev0", 0, bytes(8), bytes(8), bytes(16), engine, PROFILE, MetricsRecorder()
    )
    link = engine.add_link("dev0->gw0", "dev0", "gw0", LINK_CLASS_AIR, LatencyModel.fixed(1))
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
