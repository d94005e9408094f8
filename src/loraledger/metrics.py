"""Request bookkeeping and result emission.

Every join attempt and every uplink gets a request record at issue time;
completion or failure stamps it later.  Records still inflight when the run
ends stay marked as such, and the CSV keeps them, so nothing is silently
dropped from the accounting.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .simnet import Link

STATUS_INFLIGHT = "inflight"
STATUS_COMPLETED = "completed"
STATUS_FAILED = "failed"


@dataclass(slots=True)
class RequestRecord:
    request_id: int
    kind: str  # "join" | "uplink"
    device: str
    issued_us: int
    completed_us: int | None = None
    status: str = STATUS_INFLIGHT

    @property
    def latency_us(self) -> int | None:
        if self.completed_us is None:
            return None
        return self.completed_us - self.issued_us


class MetricsRecorder:
    def __init__(self) -> None:
        self.records: list[RequestRecord] = []

    def issue(self, kind: str, device: str, now_us: int) -> int:
        request_id = len(self.records)
        self.records.append(
            RequestRecord(request_id=request_id, kind=kind, device=device, issued_us=now_us)
        )
        return request_id

    def complete(self, request_id: int, now_us: int) -> None:
        record = self.records[request_id]
        record.completed_us = now_us
        record.status = STATUS_COMPLETED

    def fail(self, request_id: int, now_us: int) -> None:
        record = self.records[request_id]
        record.completed_us = now_us
        record.status = STATUS_FAILED

    def by_kind(self, kind: str) -> list[RequestRecord]:
        return [r for r in self.records if r.kind == kind]


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile over an already sorted sample."""
    if not sorted_values:
        raise ValueError("empty sample")
    rank = max(1, -(-len(sorted_values) * fraction // 1))  # ceil without math import
    return sorted_values[int(rank) - 1]


def latency_stats(records: list[RequestRecord]) -> dict:
    """Counts plus completed-only latency distribution, in milliseconds."""
    issued = len(records)
    completed = [r for r in records if r.status == STATUS_COMPLETED]
    failed = sum(1 for r in records if r.status == STATUS_FAILED)
    inflight = issued - len(completed) - failed
    stats = {
        "issued": issued,
        "completed": len(completed),
        "failed": failed,
        "inflight": inflight,
        "mean_ms": None,
        "median_ms": None,
        "p95_ms": None,
        "max_ms": None,
    }
    if completed:
        latencies_ms = sorted(r.latency_us / 1000.0 for r in completed)
        stats["mean_ms"] = statistics.fmean(latencies_ms)
        stats["median_ms"] = statistics.median(latencies_ms)
        stats["p95_ms"] = percentile(latencies_ms, 0.95)
        stats["max_ms"] = latencies_ms[-1]
    return stats


def write_requests_csv(path: str, records: list[RequestRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "device", "issued_us", "completed_us", "status", "latency_us"])
        for r in records:
            writer.writerow(
                [
                    r.kind,
                    r.device,
                    r.issued_us,
                    "" if r.completed_us is None else r.completed_us,
                    r.status,
                    "" if r.latency_us is None else r.latency_us,
                ]
            )


def write_links_csv(path: str, links: list[Link]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["link", "class", "offered_msgs", "delivered_msgs", "lost_msgs", "offered_bytes"]
        )
        for link in sorted(links, key=lambda l: l.name):
            writer.writerow(
                [
                    link.name,
                    link.link_class,
                    link.offered_msgs,
                    link.delivered_msgs,
                    link.lost_msgs,
                    link.bytes_sent,
                ]
            )


def format_value(value) -> str:
    """One summary or comparison value as the result files and the CLI print it."""
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.3f" % value
    return str(value)


def report_text(values: dict) -> str:
    """One ``key: value`` line per entry, as the result files and the CLI print them."""
    return "".join("%s: %s\n" % (key, format_value(value)) for key, value in values.items())
