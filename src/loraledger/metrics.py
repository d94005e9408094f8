"""Request bookkeeping and result emission.

Every join attempt and every uplink gets a request record at issue time;
completion or failure stamps it later.  Records still inflight when the run
ends stay marked as such, and the CSV keeps them, so nothing is silently
dropped from the accounting.

The recorder keeps its log as columns, one compact array per field, so a
request costs a few bytes of arrays instead of an object.  ``records`` reads
it back as ``RequestRecord`` snapshots; the summary and ``requests.csv`` read
the columns directly.
"""

from __future__ import annotations

import csv
import io
import statistics
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress
from operator import sub
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .simnet import Link

STATUS_INFLIGHT = "inflight"
STATUS_COMPLETED = "completed"
STATUS_FAILED = "failed"

# status codes, indexes into _STATUSES
_INFLIGHT, _COMPLETED, _FAILED = range(3)
_STATUSES = (STATUS_INFLIGHT, STATUS_COMPLETED, STATUS_FAILED)


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """One request as the recorder held it when the record was read."""

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


class RequestColumns(NamedTuple):
    """One kind's requests: every status code in issue order, and the
    latency and completion time of each completed one."""

    statuses: bytes
    latencies_us: list[int]
    completed_us: list[int]


def _where(codes: bytes | bytearray, code: int) -> bytes:
    """A mask over ``codes``: 1 where it holds ``code``, else 0."""
    table = bytearray(256)
    table[code] = 1
    return codes.translate(table)


def _code(names: list[str], codes: dict[str, int], name: str) -> int:
    """``name``'s index in ``names``, appending it on first sight."""
    code = codes.setdefault(name, len(names))
    if code == len(names):
        names.append(name)
    return code


class MetricsRecorder:
    """The request log, one column per field, indexed by request id.

    Kinds and devices are stored as indexes into tables of their names.
    ``_completed`` holds the completion or failure time; it means nothing
    while the status is in flight.
    """

    def __init__(self) -> None:
        self._kinds = bytearray()
        self._devices = array("I")
        self._issued = array("q")
        self._completed = array("q")
        self._statuses = bytearray()
        self._kind_names: list[str] = []
        self._kind_codes: dict[str, int] = {}
        self._device_ids: list[str] = []
        self._device_codes: dict[str, int] = {}

    def issue(self, kind: str, device: str, now_us: int) -> int:
        request_id = len(self._issued)
        self._kinds.append(_code(self._kind_names, self._kind_codes, kind))
        self._devices.append(_code(self._device_ids, self._device_codes, device))
        self._issued.append(now_us)
        self._completed.append(0)
        self._statuses.append(_INFLIGHT)
        return request_id

    def complete(self, request_id: int, now_us: int) -> None:
        self._completed[request_id] = now_us
        self._statuses[request_id] = _COMPLETED

    def fail(self, request_id: int, now_us: int) -> None:
        self._completed[request_id] = now_us
        self._statuses[request_id] = _FAILED

    @property
    def records(self) -> "RequestLog":
        return RequestLog(self)

    def by_kind(self, kind: str) -> list[RequestRecord]:
        return [r for r in self.records if r.kind == kind]

    def columns(self, kind: str) -> RequestColumns:
        """The columns ``latency_stats`` and the summary read for ``kind``."""
        if kind not in self._kind_codes:
            return RequestColumns(b"", [], [])
        selected = _where(self._kinds, self._kind_codes[kind])
        statuses = bytes(compress(self._statuses, selected))
        done = _where(statuses, _COMPLETED)
        issued_us = compress(compress(self._issued, selected), done)
        completed_us = list(compress(compress(self._completed, selected), done))
        return RequestColumns(statuses, list(map(sub, completed_us, issued_us)), completed_us)

    def _rows(self):
        """(kind, device, issued_us, completed_us, status) per request, in issue order."""
        kinds, devices = self._kind_names, self._device_ids
        for kind, device, issued_us, completed_us, status in zip(
            self._kinds, self._devices, self._issued, self._completed, self._statuses
        ):
            yield (
                kinds[kind],
                devices[device],
                issued_us,
                None if status == _INFLIGHT else completed_us,
                _STATUSES[status],
            )


class RequestLog(Sequence):
    """A read-only view of a recorder's log; every item is a fresh snapshot."""

    __slots__ = ("_recorder",)

    def __init__(self, recorder: MetricsRecorder) -> None:
        self._recorder = recorder

    def __len__(self) -> int:
        return len(self._recorder._issued)

    def __getitem__(self, index: int) -> RequestRecord:
        request_id = range(len(self))[index]  # a negative index counts from the end
        rec = self._recorder
        status = rec._statuses[request_id]
        return RequestRecord(
            request_id=request_id,
            kind=rec._kind_names[rec._kinds[request_id]],
            device=rec._device_ids[rec._devices[request_id]],
            issued_us=rec._issued[request_id],
            completed_us=None if status == _INFLIGHT else rec._completed[request_id],
            status=_STATUSES[status],
        )

    def __iter__(self):
        for request_id, row in enumerate(self._recorder._rows()):
            yield RequestRecord(request_id, *row)


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile over an already sorted sample."""
    if not sorted_values:
        raise ValueError("empty sample")
    rank = max(1, -(-len(sorted_values) * fraction // 1))  # ceil without math import
    return sorted_values[int(rank) - 1]


def latency_stats(columns: RequestColumns) -> dict:
    """Counts plus completed-only latency distribution, in milliseconds."""
    issued = len(columns.statuses)
    completed = len(columns.latencies_us)
    failed = columns.statuses.count(_FAILED)
    inflight = issued - completed - failed
    stats = {
        "issued": issued,
        "completed": completed,
        "failed": failed,
        "inflight": inflight,
        "mean_ms": None,
        "median_ms": None,
        "p95_ms": None,
        "max_ms": None,
    }
    if completed:
        latencies_ms = sorted(latency / 1000.0 for latency in columns.latencies_us)
        stats["mean_ms"] = statistics.fmean(latencies_ms)
        stats["median_ms"] = statistics.median(latencies_ms)
        stats["p95_ms"] = percentile(latencies_ms, 0.95)
        stats["max_ms"] = latencies_ms[-1]
    return stats


_CSV_SPECIALS = frozenset(',"\r\n')  # characters that make ``csv.writer`` quote a field


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a row of several fields."""
    if _CSV_SPECIALS.isdisjoint(text):
        return text
    out = io.StringIO()
    csv.writer(out).writerow((text, ""))
    return out.getvalue()[: -len(',\r\n')]


def write_requests_csv(path: str, recorder: MetricsRecorder) -> None:
    """One row per request in issue order, byte for byte as ``csv.writer`` writes them.

    Rows are formatted here and streamed to the file: a request still in
    flight leaves its completion time and latency empty.  Kind and device
    names are quoted once per name, not once per row.
    """
    kinds = [_csv_field(kind) for kind in recorder._kind_names]
    devices = [_csv_field(device) for device in recorder._device_ids]
    rows = zip(
        recorder._kinds,
        recorder._devices,
        recorder._issued,
        recorder._completed,
        recorder._statuses,
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("kind,device,issued_us,completed_us,status,latency_us\r\n")
        fh.writelines(
            "%s,%s,%d,,%s,\r\n" % (kinds[kind], devices[device], issued_us, STATUS_INFLIGHT)
            if status == _INFLIGHT
            else "%s,%s,%d,%d,%s,%d\r\n"
            % (
                kinds[kind],
                devices[device],
                issued_us,
                completed_us,
                _STATUSES[status],
                completed_us - issued_us,
            )
            for kind, device, issued_us, completed_us, status in rows
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
