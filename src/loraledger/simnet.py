"""Deterministic discrete-event engine with lossy, latency-modeled links.

Time is an integer microsecond counter.  Events are totally ordered by
(fire_at, sequence number), so identical (scenario, seed) pairs replay the
same trace byte for byte.  Named random streams keep independent concerns
(per-device behavior, per-link loss and latency, per-node nonce draws) from
perturbing each other's draw sequences.  A stream's state depends only on
the seed and its name, never on when it is made, so the engine makes one on
its first draw: a link with no loss and a fixed latency never draws and
holds none.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
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


@dataclass(frozen=True)
class LatencyModel:
    """Fixed or uniform integer delay in microseconds."""

    kind: str
    lo_us: int
    hi_us: int

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "uniform"):
            raise ValueError("latency kind must be 'fixed' or 'uniform'")
        if self.lo_us < 0 or self.hi_us < self.lo_us:
            raise ValueError("latency bounds must satisfy 0 <= lo <= hi")

    @classmethod
    def fixed(cls, delay_us: int) -> "LatencyModel":
        return cls(kind="fixed", lo_us=delay_us, hi_us=delay_us)

    @classmethod
    def uniform(cls, lo_us: int, hi_us: int) -> "LatencyModel":
        return cls(kind="uniform", lo_us=lo_us, hi_us=hi_us)

    def draw(self, rng: Random) -> int:
        if self.kind == "fixed":
            return self.lo_us
        return rng.randint(self.lo_us, self.hi_us)


class Link:
    """Directed point-to-point pipe with loss, latency, and byte accounting.

    bytes_sent counts offered bytes, lost messages included; delivered and
    lost always sum to offered.  The loss and latency stream is the engine's
    ``link:<name>`` stream, made when the link first draws from it.
    """

    def __init__(
        self,
        name: str,
        src: str,
        dst: str,
        link_class: str,
        latency: LatencyModel,
        loss_rate: float,
        engine: "Engine",
    ) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError("loss rate must be within [0, 1]")
        self.name = name
        self.src = src
        self.dst = dst
        self.link_class = link_class
        self.latency = latency
        self.loss_rate = loss_rate
        self._engine = engine
        self._rng: Random | None = None
        self.offered_msgs = 0
        self.delivered_msgs = 0
        self.lost_msgs = 0
        self.bytes_sent = 0

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
        name: str,
        src: str,
        dst: str,
        link_class: str,
        latency: LatencyModel,
        loss_rate: float = 0.0,
    ) -> Link:
        if name in self.links:
            raise ValueError("link %r already exists" % name)
        link = Link(
            name=name,
            src=src,
            dst=dst,
            link_class=link_class,
            latency=latency,
            loss_rate=loss_rate,
            engine=self,
        )
        self.links[name] = link
        return link

    def send(self, link: Link, payload: Any, size_bytes: int) -> None:
        """Offer a message to a link; loss is decided immediately, delivery later."""
        if size_bytes < 0:
            raise ValueError("message size must be non-negative")
        link.offered_msgs += 1
        link.bytes_sent += size_bytes
        if link.loss_rate > 0.0 and link.rng.random() < link.loss_rate:
            link.lost_msgs += 1
            return
        link.delivered_msgs += 1
        latency = link.latency
        # a fixed delay draws nothing, so it leaves the link's stream unmade
        delay_us = latency.lo_us if latency.kind == "fixed" else latency.draw(link.rng)
        # as ``schedule`` would, minus its check: a latency model is never negative
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
