"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mixed-trust --seed 1 --seconds 5 --trace 0

Run from the root of a checkout; the simulator is imported from ``src/``.
Each run times the host cost of the workload's scenario in both deployment
modes on one seed, checks the simulated outputs, and prints one
``name: value unit`` line per metric, then a JSON object as the last line.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` a traced pass reports the per-layer ones instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

# The program under test is the checkout's own source tree, never an
# installed copy.
if not os.path.isfile(os.path.join(SRC, "loraledger", "__init__.py")):
    sys.exit("perfbench: no loraledger sources under %s" % SRC)
sys.path.insert(0, SRC)

import checks  # noqa: E402
import host  # noqa: E402
import sim  # noqa: E402
from loraledger import ledger  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# A timed run repeats standalone set-ups, and `loraledger ledger verify`
# processes, until both a count and a time are reached: the short ones then
# get enough samples that their medians steady.  setup_s is the median over
# these set-ups and those inside the measured passes.
SETUP_REPEATS, SETUP_MIN_S = 4, 2.0
VERIFY_REPEATS, VERIFY_MIN_S = 5, 3.0
# Rounds of the drift probe's kernel before the run; host.calib_s is their median.
CALIB_ROUNDS = 9


def host_calib_s() -> float:
    """Median time of the drift probe's kernel, run before anything else."""
    return statistics.median(host.probe_s() for _ in range(CALIB_ROUNDS))


def verify_chain_file(path: str) -> tuple[float, int]:
    """Time `loraledger ledger verify` in a fresh process; returns (seconds, exit code).

    The whole process is timed, interpreter start-up and exit included,
    less the drift probes it runs on its own core around the command
    (verify_chain.py), which a probe in this process would not see.
    """
    started = perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "verify_chain.py"), path],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = perf_counter() - started
    if proc.returncode != 0:
        return elapsed, proc.returncode
    timing = json.loads(proc.stdout.splitlines()[-1])
    verify_s = elapsed - timing["probing_s"]
    return host.corrected_s(verify_s, timing["probes_s"]), proc.returncode


class Pair:
    """One workload pass: both modes on one seed, with their correctness checks."""

    def __init__(self, workload, seed: int, out_dir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.runs = []

    def run_mode(self, mode: str) -> None:
        config = sim.build_config(self.workload.overrides, self.seed, mode)
        self.runs.append(sim.run_mode(config, os.path.join(self.out_dir, mode)))

    def run(self) -> "Pair":
        for mode in sim.MODES:
            self.run_mode(mode)
        return self

    @property
    def worlds(self) -> list:
        return [r.world for r in self.runs]

    def timings(self) -> dict[str, float]:
        edge, traditional = self.runs
        wall = edge.wall_s + traditional.wall_s
        events = sum(w.engine.events_processed for w in self.worlds)
        issued = sum(len(w.recorder.records) for w in self.worlds)
        return {
            "wall_s": wall,
            "edge.wall_s": edge.wall_s,
            "traditional.wall_s": traditional.wall_s,
            "setup_s": edge.setup_s + traditional.setup_s,
            "events_per_s": events / (edge.loop_s + traditional.loop_s),
            "requests_per_s": issued / wall,
            "host.wall_s": edge.host_wall_s + traditional.host_wall_s,
        }

    def dump_chain(self) -> str:
        """Write the edge-mode chain of the workload's channel; returns its path."""
        world = self.runs[0].world
        maintainer = world.consensus.maintainers[self.workload.chain][0]
        node = next(n for n in world.gateways + world.servers if n.entity_id == maintainer)
        data = ledger.dump_chain(node.ledgers[self.workload.chain], world.key_directory)
        path = os.path.join(self.out_dir, "%s.chain" % self.workload.chain)
        with open(path, "wb") as fh:
            fh.write(data)
        return path

    def check(self) -> list[str]:
        failures = []
        for world in self.worlds:
            failures += checks.replica_chains(world)
            failures += checks.requests_settled(world)
        failures += checks.payloads_match(*self.worlds)
        failures += sim.check_run_path()
        digest = sim.fingerprint(self.out_dir)
        print("fingerprint: %s" % digest)
        if self.seed == DEFAULT_SEED:
            pinned = load_json("perfbench/fingerprints.json").get(self.workload.name)
            if digest != pinned:
                failures.append("fingerprint %s differs from the pinned %s" % (digest, pinned))
        return failures

    def outcomes(self) -> tuple[int, int]:
        attempted = failed = 0
        for world in self.worlds:
            issued, unsettled = checks.authorized_outcomes(world)
            attempted += issued
            failed += unsettled
        return attempted, failed


def repeat(times: int, min_s: float, sample) -> list[float]:
    """Call ``sample`` (which returns seconds) at least ``times`` times and ``min_s`` seconds."""
    samples = []
    while len(samples) < times or sum(samples) < min_s:
        samples.append(sample())
    return samples


def set_up_pair(workload, seed: int) -> float:
    stopwatch = host.Stopwatch()
    for mode in sim.MODES:
        config = sim.build_config(workload.overrides, seed, mode)
        with stopwatch:
            sim.set_up(config)
    gc.collect()
    return stopwatch.seconds


def timed_run(workload, seed: int, seconds: int, out_dir: str) -> tuple[dict, list, int, int]:
    setups = repeat(SETUP_REPEATS, SETUP_MIN_S, lambda: set_up_pair(workload, seed))

    samples: list[dict] = []
    failures: list[str] = []
    fingerprints = set()
    attempted = failed = 0
    chain_path = None
    while not samples or sum(s["host.wall_s"] for s in samples) < seconds:
        pair = Pair(workload, seed, out_dir).run()
        samples.append(pair.timings())
        pass_attempted, pass_failed = pair.outcomes()
        attempted += pass_attempted
        failed += pass_failed
        if chain_path is None:
            failures += pair.check()
            chain_path = pair.dump_chain()
        fingerprints.add(sim.fingerprint(out_dir))
        # worlds hold reference cycles; free them before the next pass
        del pair
        gc.collect()
    if len(fingerprints) != 1:
        failures.append("passes of one seed wrote different outputs")

    codes = set()

    def verify_once() -> float:
        elapsed, code = verify_chain_file(chain_path)
        codes.add(code)
        return elapsed

    verify_s = repeat(VERIFY_REPEATS, VERIFY_MIN_S, verify_once)
    failures += ["loraledger ledger verify exited %d" % code for code in sorted(codes - {0})]

    metrics = {
        name: statistics.median(s[name] for s in samples) for name in samples[0]
    }
    metrics["setup_s"] = statistics.median(setups + [s["setup_s"] for s in samples])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["chain_verify_s"] = statistics.median(verify_s)
    print(
        "passes: %d, set-ups: %d, chain verifies: %d"
        % (len(samples), len(setups), len(verify_s))
    )
    return metrics, failures, attempted, failed


def traced_run(workload, seed: int, out_dir: str) -> tuple[dict, list, int, int]:
    untraced = Pair(workload, seed, out_dir).run().timings()["wall_s"]
    gc.collect()

    import layers
    import tracer

    spans = tracer.Tracer(workload.name)
    pair = Pair(workload, seed, out_dir)
    spans.install()
    try:
        for mode in sim.MODES:
            spans.begin(mode)
            pair.run_mode(mode)
        spans.begin("chain")
        chain_path = pair.dump_chain()
        with open(chain_path, "rb") as fh:
            ledger.load_chain(fh.read())
    finally:
        spans.uninstall()

    failures = pair.check()
    _, code = verify_chain_file(chain_path)
    if code != 0:
        failures.append("loraledger ledger verify exited %d" % code)

    totals = spans.totals()
    metrics = layers.per_layer(totals, pair.worlds)
    metrics["trace.wall_s"] = pair.timings()["wall_s"]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
    per_mode = {w.config.mode: layers.per_layer(totals, [w]) for w in pair.worlds}
    stem = os.path.join(out_dir, "trace-seed%d" % seed)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        summary = {"workload": workload.name, "seed": seed, "total": metrics, "modes": per_mode}
        json.dump(summary, fh, indent=1)
    spans.write(stem + ".spans.csv.gz")
    attempted, failed = pair.outcomes()
    return metrics, failures, attempted, failed


def load_json(path: str):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    spec = load_json("BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(OUT, workload.name)
    os.makedirs(out_dir, exist_ok=True)

    calib = host_calib_s()
    if args.trace:
        measured, failures, attempted, failed = traced_run(workload, args.seed, out_dir)
        wanted = spec["per_layer"]
        measured["host.calib_s"] = calib
    else:
        measured, failures, attempted, failed = timed_run(
            workload, args.seed, args.seconds, out_dir
        )
        wanted = spec["end_to_end"]
    for failure in failures:
        print("CHECK FAILED: %s" % failure)
    if failures:
        failed = attempted
    measured["completed_share"] = (attempted - failed) / attempted
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    if "host.calib_s" not in metrics:
        print("host.calib_s: %.6g s" % calib)
    if "host.wall_s" in measured:
        print("host.wall_s: %.6g s (wall_s before the drift correction)" % measured["host.wall_s"])
    for name, metric in metrics.items():
        print("%s: %.6g %s" % (name, metric["value"], metric["unit"]))
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace)
    record["host.calib_s"] = calib
    record["host.wall_s"] = measured.get("host.wall_s")
    with open(os.path.join(OUT, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
