"""Run workloads on several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--write perfbench/baseline.json]

Runs seeds 1 to ``--runs`` one after another, each in a fresh process.  For every end-to-end
metric the spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median; it is
compared with the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, trace: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    calib = next(l for l in lines if l.startswith("host.calib_s:"))
    result["host.calib_s"] = float(calib.split()[1])
    result["run_s"] = time.perf_counter() - started
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--write", help="write the summary as JSON to this path")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    all_correct = True
    for workload in args.workload or names:
        results = []
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, 0)
            all_correct &= result["correct"] and result["failed"] == 0
            results.append(result)
            print(workload, seed, result["correct"], "%.1fs" % result["run_s"], json.dumps(
                {k: round(v["value"], 4) for k, v in result["metrics"].items()}), flush=True)
        report[workload] = {
            name: summarize([r["metrics"][name]["value"] for r in results]) for name in bounds
        }
        report[workload]["host.calib_s"] = summarize([r["host.calib_s"] for r in results])
        for name, stats in report[workload].items():
            bound = bounds.get(name)
            flag = ""
            if bound and stats["spread"] > bound:
                flag = "OVER BOUND"
            elif bound and stats["spread"] > bound / 3:
                flag = "over a third of the bound"
            print("  %-22s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f  bound %s %s" % (
                name, stats["median"], stats["q1"], stats["q3"], stats["spread"], bound, flag))
    if args.write:
        with open(os.path.join(ROOT, args.write), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
