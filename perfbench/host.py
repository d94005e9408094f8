"""Host-time measurement corrected for host drift.

On a shared host the speed of one process drifts by about 20% over tens of
seconds, for CPU time as much as for wall time.  A short fixed kernel run
``PROBES`` times just before and just after a timed block tracks that drift:
each block's host time is scaled by ``REF_PROBE_S`` over the median of these
kernel times, giving the seconds the block would take on a host where the
kernel takes ``REF_PROBE_S``.  The median keeps one probe slowed by a hiccup
from moving the block; the faster of one probe before and one after would do
that too, but follows the short bursts of a shared host and spread 1.5 times
as wide over repeated chain verifies.

The kernel mixes what the simulator spends its time on: SHA-256 and Ed25519
verify through ``cryptography``, and heap and dict work in pure Python.  It
runs no loraledger code, and the cyclic garbage collector is off while it
runs, so that a collection cannot walk the program's heap inside a probe: no
change to the program can move it.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from time import perf_counter

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# Probe time on a quiet host of the kind the baseline was measured on; any
# constant works, as both sides of a comparison use the same one.
REF_PROBE_S = 0.0035
# Kernel runs on each side of a timed block.
PROBES = 3

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_MESSAGE = bytes(range(256)) * 4
_SIGNATURE = _KEY.sign(_MESSAGE)
_PUBLIC = _KEY.public_key()


def probe_s() -> float:
    """Run the fixed kernel once (about 3 to 5 ms); returns its host seconds."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _kernel_s()
    finally:
        if collecting:
            gc.enable()


def _kernel_s() -> float:
    started = perf_counter()
    for _ in range(12):
        digest = hashes.Hash(hashes.SHA256())
        digest.update(_MESSAGE)
        digest.finalize()
        _PUBLIC.verify(_SIGNATURE, _MESSAGE)
    heap: list = []
    for i in range(3000):
        heapq.heappush(heap, (i * 7919 % 3001, i))
    table = {}
    while heap:
        key, i = heapq.heappop(heap)
        table[i] = key
    return perf_counter() - started


def probes_s() -> list[float]:
    """Run the kernel PROBES times; returns each run's host seconds."""
    return [probe_s() for _ in range(PROBES)]


def corrected_s(host_s: float, probes: list[float]) -> float:
    """Host seconds of a block, scaled to a host where the kernel takes REF_PROBE_S.

    ``probes`` are the kernel times taken just before and just after the block.
    """
    return host_s * REF_PROBE_S / statistics.median(probes)


class Stopwatch:
    """Sums timed blocks (``with stopwatch: ...``) in host and drift-corrected seconds."""

    def __init__(self) -> None:
        self.host_s = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self._probes_before = probes_s()
        self._started = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = perf_counter() - self._started
        self.host_s += elapsed
        self.seconds += corrected_s(elapsed, self._probes_before + probes_s())
