"""Per-node, per-second traffic counters and run-level summaries.

A transmission is recorded when it completes: the receiving second gets one
`in` count at the destination and one `out` count at the source, so the
global in and out totals reconcile exactly per second. A duplicate receipt
is wire traffic: it counts in `in`, and in `dup` too.

The counts are one dense table. The nodes are indexed once, in ascending id
order, and each (second, kind) holds one row over that index per direction,
`dup`, `in` and `out`. Zero cells are never exported, and a second whose
rows are all zero is not a populated bucket.

Averages are taken over the populated, non-excluded seconds of a run
(buckets before the warmup boundary are kept but flagged excluded). All
totals are integers; averages divide once, so per-kind figures sum exactly
to the combined figure.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial
from io import StringIO
from types import MappingProxyType
from typing import TextIO

from .messages import APPLICATION_KINDS, CONTROL_KINDS, DEFAULT_MESSAGE_SIZES, MessageKind

CSV_HEADER = "node,second,kind,direction,messages,bytes,excluded"
# The order of a (second, kind)'s rows in `MetricsLog.rows`, and in the CSV.
DIRECTIONS = ("dup", "in", "out")

_KIND_BY_NAME = {k.value: k for k in MessageKind}


class EmptyWindowError(ValueError):
    """Summarizing a log with no populated bucket past the warmup boundary."""


def _zero_rows(width: int) -> tuple[list[int], list[int], list[int]]:
    """The (dup, in, out) rows of a (second, kind) before its first count."""
    return [0] * width, [0] * width, [0] * width


class MetricsLog:
    """Raw counters for one scenario run plus run metadata."""

    __slots__ = ("policy", "seed", "config_hash", "warmup_ms", "duration_ms",
                 "message_sizes", "nodes", "index", "rows")

    def __init__(self, policy: str = "", seed: int = 0, config_hash: str = "",
                 warmup_ms: int = 0, duration_ms: int = 0,
                 message_sizes: dict[MessageKind, int] | None = None,
                 nodes: Iterable[int] = ()):
        self.policy = policy
        self.seed = seed
        self.config_hash = config_hash
        self.warmup_ms = warmup_ms
        self.duration_ms = duration_ms
        self.message_sizes = dict(message_sizes or DEFAULT_MESSAGE_SIZES)
        self.nodes = sorted(nodes)
        self.index = {node: i for i, node in enumerate(self.nodes)}
        # (second, kind) -> its (dup, in, out) rows, created zero on first use
        self.rows: defaultdict[tuple[int, MessageKind], tuple[list[int], ...]] = defaultdict(
            partial(_zero_rows, len(self.nodes)))

    def add(self, node: int, second: int, kind: MessageKind, direction: str,
            n: int = 1) -> None:
        """Add `n` to one cell; `direction` is one of DIRECTIONS."""
        self.rows[second, kind][DIRECTIONS.index(direction)][self.index[node]] += n

    def _cells(self, direction: str):
        d = DIRECTIONS.index(direction)
        return (((node, second, kind), n) for (second, kind), rows in self.rows.items()
                for node, n in zip(self.nodes, rows[d]) if n)

    @property
    def counts(self) -> MappingProxyType:
        """Read-only {(node, second, kind, "in"/"out"): messages}, nonzero cells."""
        return MappingProxyType({(*key, d): n for d in ("in", "out") for key, n in self._cells(d)})

    @property
    def duplicates(self) -> MappingProxyType:
        """Read-only {(node, second, kind): duplicate receipts}, nonzero cells."""
        return MappingProxyType(dict(self._cells("dup")))

    def excluded(self, second: int) -> bool:
        """A bucket is excluded if any part of it precedes the warmup boundary."""
        return second * 1000 < self.warmup_ms


@dataclass(frozen=True)
class RunSummary:
    """Averages over the observed window, with exact integer totals kept."""

    avg_total_msgs_per_sec: float
    avg_application_msgs_per_sec: float
    avg_control_msgs_per_sec: float
    avg_per_kind: dict[str, dict[str, float]]
    per_kind_totals: dict[str, dict[str, int]]
    total_duplicates: int
    control_overhead_msgs: int
    seconds_observed: int
    include_control: bool = True


@dataclass(frozen=True)
class SavingsReport:
    ratio_percent: float
    saved_percent: float


class ZeroFloodAverageError(ZeroDivisionError):
    """Savings are undefined when the flood average is not positive."""


def summarize(log: MetricsLog, include_control: bool = True) -> RunSummary:
    """Reduce a log to per-second averages over non-excluded populated buckets."""
    observed: set[int] = set()
    totals: dict[tuple[MessageKind, str], int] = defaultdict(int)
    dup_total = 0
    for (second, kind), (dup, *sent) in log.rows.items():
        if log.excluded(second):
            continue
        dup_total += sum(dup)
        for direction, row in zip(("in", "out"), sent):
            if n := sum(row):
                observed.add(second)
                totals[(kind, direction)] += n
    if not observed:
        raise EmptyWindowError("no populated bucket past the warmup boundary")

    window = len(observed)
    app_total = sum(n for (kind, _), n in totals.items() if kind in APPLICATION_KINDS)
    control_total = sum(n for (kind, _), n in totals.items() if kind in CONTROL_KINDS)
    grand_total = app_total + control_total if include_control else app_total

    avg_per_kind: dict[str, dict[str, float]] = {}
    per_kind_totals: dict[str, dict[str, int]] = {}
    for (kind, direction), n in sorted(totals.items(), key=lambda kv: (kv[0][0].value, kv[0][1])):
        avg_per_kind.setdefault(kind.value, {})[direction] = n / window
        per_kind_totals.setdefault(kind.value, {})[direction] = n

    return RunSummary(
        avg_total_msgs_per_sec=grand_total / window,
        avg_application_msgs_per_sec=app_total / window,
        avg_control_msgs_per_sec=control_total / window,
        avg_per_kind=avg_per_kind,
        per_kind_totals=per_kind_totals,
        total_duplicates=dup_total,
        control_overhead_msgs=control_total,
        seconds_observed=window,
        include_control=include_control,
    )


def savings(flood: RunSummary | float, squelch: RunSummary | float) -> SavingsReport:
    """Percentage of per-second traffic the squelch run keeps and saves."""
    flood_avg = _average_of(flood)
    squelch_avg = _average_of(squelch)
    if flood_avg <= 0:
        raise ZeroFloodAverageError("flood average must be positive")
    ratio = 100.0 * squelch_avg / flood_avg
    return SavingsReport(ratio_percent=ratio, saved_percent=100.0 - ratio)


def _average_of(value: RunSummary | float) -> float:
    if isinstance(value, RunSummary):
        return value.avg_total_msgs_per_sec
    return float(value)


def export_csv(log: MetricsLog, out: TextIO | None = None) -> str | None:
    """Deterministic CSV of every nonzero cell, in (node, second, kind,
    direction) order, duplicates under the pseudo-direction "dup". Written
    to the text file `out` one node at a time, or returned as a string
    without `out`. Round-trips through import_csv byte-exactly."""
    if out is None:
        export_csv(log, text := StringIO())
        return text.getvalue()
    # (line text between node and count, row, size, flag) per nonzero row
    rows = []
    for second, kind in sorted(log.rows, key=lambda key: (key[0], key[1].value)):
        flag = "true" if log.excluded(second) else "false"
        for direction, row in zip(DIRECTIONS, log.rows[second, kind]):
            if any(row):
                rows.append((f",{second},{kind.value},{direction},", row,
                             log.message_sizes.get(kind, 0), flag))
    out.write(CSV_HEADER + "\n")
    for i, node in enumerate(log.nodes):
        out.write("".join([f"{node}{tail}{n},{n * size},{flag}\n"
                           for tail, row, size, flag in rows if (n := row[i])]))


def import_csv(text: str) -> MetricsLog:
    """Rebuild a MetricsLog from export_csv output.

    Lines starting with '#' are ignored so annotated artifact files load
    too. The warmup boundary is recovered from the excluded flags; message
    sizes are recovered per kind from the bytes column.
    """
    cells: list[tuple[int, int, MessageKind, str, int]] = []
    sizes: dict[MessageKind, int] = {}
    max_excluded = -1
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != CSV_HEADER:
                raise ValueError(f"line {lineno}: expected header {CSV_HEADER!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise ValueError(f"line {lineno}: expected 7 fields, got {len(parts)}")
        node, second = int(parts[0]), int(parts[1])
        kind = _KIND_BY_NAME.get(parts[2])
        if kind is None:
            raise ValueError(f"line {lineno}: unknown kind {parts[2]!r}")
        direction = parts[3]
        if direction not in DIRECTIONS:
            raise ValueError(f"line {lineno}: unknown direction {direction!r}")
        msgs, bytes_ = int(parts[4]), int(parts[5])
        if parts[6] not in ("true", "false"):
            raise ValueError(f"line {lineno}: bad excluded flag {parts[6]!r}")
        if msgs > 0:
            sizes[kind] = bytes_ // msgs
        cells.append((node, second, kind, direction, msgs))
        if parts[6] == "true":
            max_excluded = max(max_excluded, second)
    if not header_seen and text.strip():
        raise ValueError("missing CSV header")
    log = MetricsLog(warmup_ms=(max_excluded + 1) * 1000,
                     duration_ms=(max([-1] + [cell[1] for cell in cells]) + 1) * 1000,
                     nodes={cell[0] for cell in cells})
    log.message_sizes.update(sizes)
    for cell in cells:
        log.add(*cell)
    return log
