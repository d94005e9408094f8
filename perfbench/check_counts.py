"""Check that per-layer counts repeat exactly, and compare them with the pinned ones.

    python3 perfbench/check_counts.py [--workload NAME ...] [--write]

Runs the traced benchmark twice per workload at the default seed.  Every
per-layer metric whose unit is not seconds is a count of simulated or traced
work and must read the same in both runs; the script exits 1 if any differs,
or if a run fails its correctness checks.  Differences from counts.json are
printed: they are what a change did to the work, stated as counts.  With
``--write`` the counts of this code are pinned into counts.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from spread import ROOT, run_once
from workloads import DEFAULT_SEED

PINNED = os.path.join(ROOT, "perfbench", "counts.json")


def counts(result: dict) -> dict:
    return {n: m["value"] for n, m in result["metrics"].items() if m["unit"] != "s"}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--write", action="store_true", help="pin this code's counts")
    args = parser.parse_args()
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)

    status = 0
    for workload in args.workload or names:
        first, second = (run_once(workload, DEFAULT_SEED, 1) for _ in range(2))
        if not (first["correct"] and second["correct"]):
            print("%s: a traced run failed its correctness checks" % workload)
            status = 1
        a, b = counts(first), counts(second)
        unequal = sorted(n for n in a if a[n] != b[n])
        for name in unequal:
            print("%s: %s differs between two runs: %r vs %r" % (workload, name, a[name], b[name]))
        status |= bool(unequal)
        old = pinned.get(workload, {})
        moved = sorted(n for n in a if old.get(n) != a[n])
        for name in moved:
            print("%s: %s %r -> %r" % (workload, name, old.get(name), a[name]))
        print(
            "%s: %d counts repeat exactly; %d differ from counts.json"
            % (workload, len(a) - len(unequal), len(moved))
        )
        pinned[workload] = a
    if args.write:
        with open(PINNED, "w", encoding="utf-8") as fh:
            json.dump(pinned, fh, indent=1)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
