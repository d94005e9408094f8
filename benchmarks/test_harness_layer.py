"""Micro-benchmarks of the harness set-up path and the request log (pytest-benchmark).

    python3 -m pytest benchmarks --benchmark-only

Outside the Tier-1 ``testpaths``; each benchmark also checks its result, so a
fast wrong answer does not pass.  The set-up case builds the edge-mode world
of experiment 3 with 1000 devices, 5 gateways and 2 servers (the edge half of
the ``mixed-trust`` workload) and bootstraps its authorized sessions.  The
engine then holds one random stream per device and per node: a link makes
its stream on its first draw, and no bootstrap stream is kept.

The request-log cases record and write that run's volume of uplinks: 23,927
from 1000 devices, where the even (authorized) devices complete, the odd
ones fail, and the last 676 stay in flight.
"""

import csv

from loraledger.harness import bootstrap_sessions, build_world
from loraledger.metrics import MetricsRecorder, latency_stats, write_requests_csv
from loraledger.scenario import build_config

CONFIG = build_config(
    flag_overrides=dict(
        experiment=3, n_devices=1000, n_gateways=5, n_servers=2, mode="edge", seed=1
    )
)


def test_build_world_and_bootstrap_sessions(benchmark):
    def set_up():
        world = build_world(CONFIG)
        bootstrap_sessions(world)
        return world

    world = benchmark.pedantic(set_up, rounds=10)
    assert len(world.engine._streams) == 1000 + 7
    assert sum(device.session is not None for device in world.devices) == 500


REQUESTS, INFLIGHT = 23_927, 676
DEVICES = ["dev%04d" % i for i in range(1000)]


def record_uplinks() -> MetricsRecorder:
    recorder = MetricsRecorder()
    for n in range(REQUESTS):
        issued_us = n * 12_500
        request_id = recorder.issue("uplink", DEVICES[n % 1000], issued_us)
        if n >= REQUESTS - INFLIGHT:
            continue
        if n % 2:
            recorder.fail(request_id, issued_us + 30_000_000)
        else:
            recorder.complete(request_id, issued_us + 800_000)
    return recorder


def check_uplink_stats(recorder: MetricsRecorder) -> None:
    stats = latency_stats(recorder.columns("uplink"))
    settled = REQUESTS - INFLIGHT
    assert (stats["issued"], stats["inflight"]) == (REQUESTS, INFLIGHT)
    assert (stats["completed"], stats["failed"]) == ((settled + 1) // 2, settled // 2)
    assert stats["max_ms"] == 800.0


def test_record_requests(benchmark):
    check_uplink_stats(benchmark(record_uplinks))


def test_write_requests_csv(benchmark, tmp_path):
    recorder = record_uplinks()
    path = tmp_path / "requests.csv"
    benchmark(write_requests_csv, str(path), recorder)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + REQUESTS
    assert rows[1] == ["uplink", "dev0000", "0", "800000", "completed", "800000"]
    assert rows[-1][3:] == ["", "inflight", ""]
    check_uplink_stats(recorder)
