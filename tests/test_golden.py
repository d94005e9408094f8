"""Golden digests: fixed seeds must keep producing byte-identical artifacts.

Each case runs both deployment modes through ``compare_modes`` and hashes the
emitted ``requests.csv``, ``links.csv`` and ``summary.txt`` of each mode.  A
refactor or speedup that changes any simulated outcome (a counter, a timing,
a filtered frame, a byte on a link) changes a digest.  If a change is meant
to alter the simulation, recompute the digests with ``artifact_digest`` and
say why in the change log.
"""

import hashlib

import pytest

from loraledger.harness import compare_modes
from loraledger.scenario import build_config

ARTIFACTS = ("requests.csv", "links.csv", "summary.txt")
MODES = ("edge", "traditional")

EXP1 = dict(experiment=1, n_devices=20, seed=6, duration_s=1800)
EXP2 = dict(experiment=2, n_devices=8, seed=6, duration_s=90, warmup_s=0)

CASES = {
    "exp1": EXP1,
    "exp2": EXP2,
    "exp3": dict(EXP2, experiment=3),
    "exp2-pbft": dict(EXP2, n_servers=4, consensus_mode="pbft", consensus_p=1, duration_s=60),
    "exp1-delay-loss": dict(EXP1, join_processing_delay_ms=150, loss_rate=0.05),
    # equal backhaul bounds: no backhaul link draws, and every backhaul delay is the bound
    "exp2-fixed-backhaul": dict(EXP2, backhaul_latency_ms=(10, 10)),
    "exp2-pbft-fixed-backhaul": dict(
        EXP2,
        n_servers=4,
        consensus_mode="pbft",
        consensus_p=1,
        duration_s=60,
        backhaul_latency_ms=(7, 7),
    ),
}

GOLDEN = {
    "exp1": "8fef3a579f63ae9bc27449f7393251fdf22c3c5c488ddc40d9fda3f7b510e724",
    "exp1-delay-loss": "121ffdda6258b942e364c373fd6ec993b2aaa9e4493fe16c5172ecca07e230a5",
    "exp2": "598f0f1cfd98a9188fc77988a273aa8343476bc5b5ff11453767348ce15803ad",
    "exp2-fixed-backhaul": "73ef187151516dc3b6f04e820b70fd91f028942cfbd1619fa458cae263095ac4",
    "exp2-pbft": "de271df5ed9177f05f8d3f2e856d1fbf68629068f4344a0d2459545a5ff11065",
    "exp2-pbft-fixed-backhaul": "418febdd190bc3e49d144db7f09993f68376f07ad27d119516d9e00187b480f7",
    "exp3": "8787f1b08e70507b8252f8328495d6cc2bd2baf904049b4c42650e18b1d53582",
}


def artifact_digest(out_dir) -> str:
    """SHA-256 over both modes' artifacts, each framed by its path and length."""
    digest = hashlib.sha256()
    for mode in MODES:
        for name in ARTIFACTS:
            data = (out_dir / mode / name).read_bytes()
            digest.update(b"%s/%s %d\n" % (mode.encode(), name.encode(), len(data)))
            digest.update(data)
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case, tmp_path):
    compare_modes(build_config(flag_overrides=CASES[case])).emit(str(tmp_path))
    assert artifact_digest(tmp_path) == GOLDEN[case]
