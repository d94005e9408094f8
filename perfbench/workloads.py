"""The benchmark's workloads.

Each workload is a scenario that the benchmark runs in both deployment modes
on the same seed, edge first, as ``harness.compare_modes`` does.  The seed
comes from the command line; everything else is fixed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Seed at which the simulated outputs are pinned (fingerprints.json) and the
# per-layer counts are recorded (counts.json).
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict = field(hash=False)
    # ledger kind whose edge-mode chain dump `loraledger ledger verify` times
    chain: str = "application"


# Why each workload exists is recorded in BENCHMARK.json and the README.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mixed-trust",
            overrides=dict(experiment=3, n_devices=1000, n_gateways=5, n_servers=2),
        ),
        Workload(
            name="join-storm",
            overrides=dict(experiment=1, n_devices=1000, n_gateways=5),
            chain="network",
        ),
        Workload(
            name="pbft",
            overrides=dict(
                experiment=2, n_devices=200, n_servers=4, consensus_mode="pbft", consensus_p=1
            ),
        ),
    )
}
