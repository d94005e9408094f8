"""Outside-in tracer: spans around the calls into each loraledger layer.

Spans are installed where callers look the functions up.  ``nodes``,
``ledger``, ``frames`` and ``consensus`` import functions by name, so a
function is replaced in every ``loraledger`` module that binds it, not only
in the module that defines it.  Methods are replaced on their class, which
every instance and bound-method registration made afterwards sees.

Spans are kept in memory as parallel arrays (name, segment, parent, start,
end) and written out when the run ends.  Nothing in the timed run imports
this module.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

# layer -> functions and Class.method names whose calls are spans
SPANS = {
    "crypto": (
        "verify",
        "sign",
        "pk_encrypt",
        "pk_decrypt",
        "mac32",
        "aes128_encrypt_block",
        "hash_bytes",
    ),
    "frames": (
        "parse_frame",
        "build_data_frame",
        "verify_data_mic",
        "encrypt_payload",
        "serialize_frame",
        "build_join_accept",
        "open_join_accept",
    ),
    "ledger": (
        "make_app_tx",
        "make_network_tx",
        "assemble_block",
        "validate_block",
        "Ledger.append_block",
        "block_hash",
        "build_merkle",
        "Transaction.to_bytes",
        "Block.to_bytes",
        "dump_chain",
        "load_chain",
    ),
    "consensus": (
        "SoloOrderer.submit",
        "SoloOrderer.on_timer",
        "VoteRound.collect_vote",
        "VoteRound.check",
        "make_vote",
    ),
    "simnet": ("Engine.run_until", "Engine.send", "Engine.schedule", "Engine.cancel"),
    "nodes": ("Gateway.handle", "NetworkServer.handle", "EndDevice.handle"),
    "harness": ("build_world", "bootstrap_sessions", "summarize", "RunResult.emit"),
    "metrics": ("write_requests_csv", "write_links_csv", "latency_stats"),
    "scenario": ("build_config",),
}

SPAN_NAMES = tuple("%s.%s" % (layer, name) for layer, names in SPANS.items() for name in names)


class Tracer:
    """Records spans for the segment currently set with ``begin``."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.segments: list[str] = ["start"]
        self._segment = 0
        self._stack: list[int] = []
        self.name = array("H")
        self.segment = array("B")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._restore: list[tuple[object, str, object]] = []

    def begin(self, segment: str) -> None:
        """Attribute the spans that follow to ``segment`` (a mode, or "chain")."""
        self.segments.append(segment)
        self._segment = len(self.segments) - 1

    def _wrap(self, name_id: int, fn):
        stack, names, segments = self._stack, self.name, self.segment
        parents, starts, ends = self.parent, self.start, self.end

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            segments.append(self._segment)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return span

    def install(self) -> None:
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if n == "loraledger" or n.startswith("loraledger.")
        ]
        for name_id, span_name in enumerate(SPAN_NAMES):
            layer, _, path = span_name.partition(".")
            home = sys.modules["loraledger." + layer]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name_id, original))
                continue
            original = getattr(home, path)
            wrapped = self._wrap(name_id, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def totals(self) -> dict[str, dict[str, tuple[int, float]]]:
        """segment -> span name -> (calls, self seconds).

        A span's self time is its duration minus the durations of the spans
        it directly encloses.
        """
        count = len(self.start)
        child = [0.0] * count
        parent, start, end = self.parent, self.start, self.end
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [[0] * len(SPAN_NAMES) for _ in self.segments]
        self_s = [[0.0] * len(SPAN_NAMES) for _ in self.segments]
        name, segment = self.name, self.segment
        for i in range(count):
            calls[segment[i]][name[i]] += 1
            self_s[segment[i]][name[i]] += end[i] - start[i] - child[i]
        return {
            seg: {
                span_name: (calls[k][n], self_s[k][n])
                for n, span_name in enumerate(SPAN_NAMES)
            }
            for k, seg in enumerate(self.segments)
        }

    def write(self, path: str) -> None:
        """Write every span as one CSV row; times are seconds from the first span."""
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1, newline="") as fh:
            fh.write("span,name,start_s,end_s,parent,workload,segment\n")
            for i in range(len(self.start)):
                fh.write(
                    "%d,%s,%.9f,%.9f,%d,%s,%s\n"
                    % (
                        i,
                        SPAN_NAMES[self.name[i]],
                        self.start[i] - origin,
                        self.end[i] - origin,
                        self.parent[i],
                        self.workload,
                        self.segments[self.segment[i]],
                    )
                )
