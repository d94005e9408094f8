"""Run `loraledger ledger verify FILE` in this process, between two drift probes.

    python3 perfbench/verify_chain.py FILE

Calls the console script's entry point, ``loraledger.cli.main``, and exits
with its code.  The caller times the whole process; the last stdout line is
a JSON object with the probe times, taken on the core this process ran on
just before and after the command, and the host seconds the probing took,
which the caller subtracts.  Importing ``host`` loads ``cryptography``,
which the command needs as well: that cost stays in the caller's time.
"""

import json
import sys
from time import perf_counter

import host


def main() -> int:
    started = perf_counter()
    host.probe_s()  # the first call warms the kernel up
    before = host.probes_s()
    probing_s = perf_counter() - started
    from loraledger.cli import main as loraledger_main

    code = loraledger_main(["ledger", "verify", sys.argv[1]])
    started = perf_counter()
    after = host.probes_s()
    probing_s += perf_counter() - started
    print(json.dumps({"probes_s": before + after, "probing_s": probing_s}))
    return code


if __name__ == "__main__":
    sys.exit(main())
