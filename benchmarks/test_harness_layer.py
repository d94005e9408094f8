"""Micro-benchmark of the harness set-up path (pytest-benchmark).

    python3 -m pytest benchmarks --benchmark-only

Outside the Tier-1 ``testpaths``; the benchmark also checks its result, so a
fast wrong answer does not pass.  It builds the edge-mode world of
experiment 3 with 1000 devices, 5 gateways and 2 servers (the edge half of
the ``mixed-trust`` workload) and bootstraps its authorized sessions.  The
engine then holds one random stream per device and per node: a link makes
its stream on its first draw, and no bootstrap stream is kept.
"""

from loraledger.harness import bootstrap_sessions, build_world
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
