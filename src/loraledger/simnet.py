"""Deterministic discrete-event engine with lossy links of bounded delay.

Time is an integer microsecond counter.  Events are totally ordered by
(fire_at, sequence number), so identical (scenario, seed) pairs replay the
same trace byte for byte.  Named random streams keep independent concerns
(per-device behavior, per-link loss and latency, per-node nonce draws) from
perturbing each other's draw sequences.  A stream's state depends only on
the seed and its name, never on when it is made, so the engine makes one on
its first draw: a link with no loss and equal delay bounds never draws and
holds none.
"""

from __future__ import annotations

import heapq
import itertools
from random import Random
from typing import Any, Callable

US_PER_MS = 1_000
US_PER_S = 1_000_000

LINK_CLASS_AIR = "lora-air"
LINK_CLASS_BACKHAUL = "backhaul"


def named_stream(seed: int, name: str) -> Random:
    """A fresh random stream whose draws depend only on ``seed`` and ``name``."""
    return Random("%d:%s" % (seed, name))


class CausalityError(Exception):
    """An event scheduled before the current simulation time."""


class Link:
    """Directed point-to-point pipe from ``src`` to ``dst``, named ``src->dst``.

    Each message is lost with ``loss_rate``; a delivered one arrives
    ``lo_us`` microseconds later when the bounds are equal, else after a
    uniform integer delay in ``[lo_us, hi_us]``.  offered_msgs is
    delivered_msgs plus lost_msgs; bytes_sent counts offered bytes, lost
    messages included.  The loss and delay stream is the engine's
    ``link:<name>`` stream, made when the link first draws from it, so a link
    with no loss and equal bounds never makes it.
    """

    def __init__(
        self,
        src: str,
        dst: str,
        link_class: str,
        lo_us: int,
        hi_us: int,
        loss_rate: float,
        engine: "Engine",
    ) -> None:
        if lo_us < 0 or hi_us < lo_us:
            raise ValueError("latency bounds must satisfy 0 <= lo <= hi")
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError("loss rate must be within [0, 1]")
        self.name = "%s->%s" % (src, dst)
        self.src = src
        self.dst = dst
        self.link_class = link_class
        self.lo_us = lo_us
        self.hi_us = hi_us
        self.loss_rate = loss_rate
        self._engine = engine
        self._rng: Random | None = None
        self.delivered_msgs = 0
        self.lost_msgs = 0
        self.bytes_sent = 0

    @property
    def offered_msgs(self) -> int:
        return self.delivered_msgs + self.lost_msgs

    @property
    def rng(self) -> Random:
        if self._rng is None:
            self._rng = self._engine.stream("link:%s" % self.name)
        return self._rng


class Engine:
    """Event loop: schedule, cancel, send over links, run to a horizon."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.now_us = 0
        self._heap: list[tuple[int, int, str, Any]] = []
        self._seq = itertools.count()
        self._cancelled: set[int] = set()
        self._handlers: dict[str, Callable[[Any], None]] = {}
        self.links: dict[str, Link] = {}
        self._streams: dict[str, Random] = {}
        self.events_processed = 0

    def stream(self, name: str) -> Random:
        """Named deterministic random stream, stable across runs of one seed."""
        if name not in self._streams:
            self._streams[name] = named_stream(self.seed, name)
        return self._streams[name]

    def register(self, node_id: str, handler: Callable[[Any], None]) -> None:
        if node_id in self._handlers:
            raise ValueError("node id %r already registered" % node_id)
        self._handlers[node_id] = handler

    def schedule(self, delay_us: int, target: str, payload: Any) -> int:
        if delay_us < 0:
            raise CausalityError(
                "cannot schedule %d us into the past at t=%d" % (delay_us, self.now_us)
            )
        seq = next(self._seq)
        heapq.heappush(self._heap, (self.now_us + delay_us, seq, target, payload))
        return seq

    def cancel(self, event_id: int) -> None:
        self._cancelled.add(event_id)

    def add_link(
        self,
        src: str,
        dst: str,
        link_class: str,
        latency_us: tuple[int, int],
        loss_rate: float = 0.0,
    ) -> Link:
        """Add the link ``src->dst``, whose delay lies within ``latency_us = (lo, hi)``."""
        link = Link(src, dst, link_class, *latency_us, loss_rate, self)
        if link.name in self.links:
            raise ValueError("link %r already exists" % link.name)
        self.links[link.name] = link
        return link

    def send(self, link: Link, payload: Any, size_bytes: int) -> None:
        """Offer a message to a link; loss is decided immediately, delivery later."""
        if size_bytes < 0:
            raise ValueError("message size must be non-negative")
        link.bytes_sent += size_bytes
        if link.loss_rate > 0.0 and link.rng.random() < link.loss_rate:
            link.lost_msgs += 1
            return
        link.delivered_msgs += 1
        lo_us, hi_us = link.lo_us, link.hi_us
        # equal bounds draw nothing, so they leave the link's stream unmade
        delay_us = lo_us if lo_us == hi_us else link.rng.randrange(lo_us, hi_us + 1)
        # as ``schedule`` would, minus its check: a link's bounds are never negative
        heapq.heappush(self._heap, (self.now_us + delay_us, next(self._seq), link.dst, payload))

    def run_until(self, t_end_us: int) -> None:
        """Process every event with fire_at <= t_end_us, then land on t_end_us.

        An event whose handler raises is counted, and the next call goes on
        with the events still on the heap.
        """
        if t_end_us < self.now_us:
            raise CausalityError("cannot run backwards to t=%d" % t_end_us)
        heap, pop, handlers, cancelled = self._heap, heapq.heappop, self._handlers, self._cancelled
        processed = 0
        try:
            while heap and heap[0][0] <= t_end_us:
                fire_at, seq, target, payload = pop(heap)
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    continue
                self.now_us = fire_at
                try:
                    handler = handlers[target]
                except KeyError:
                    raise RuntimeError("event addressed to unknown node %r" % target) from None
                processed += 1
                handler(payload)
        finally:
            self.events_processed += processed
        self.now_us = t_end_us
