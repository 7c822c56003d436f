"""Per-node, per-second traffic counters and run-level summaries.

A transmission is recorded when it completes: the receiving second gets one
`in` count at the destination and one `out` count at the source, so the
global in and out totals reconcile exactly per second. Duplicate receipts
are wire traffic and therefore included in `in`, with a separate duplicate
counter on the side.

Averages are taken over the populated, non-excluded seconds of a run
(buckets before the warmup boundary are kept but flagged excluded). All
totals are integers; averages divide once, so per-kind figures sum exactly
to the combined figure.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .messages import (
    APPLICATION_KINDS,
    CONTROL_KINDS,
    DEFAULT_MESSAGE_SIZES,
    MessageKind,
)

CSV_HEADER = "node,second,kind,direction,messages,bytes,excluded"

_KIND_BY_NAME = {k.value: k for k in MessageKind}


class EmptyWindowError(ValueError):
    """Summarizing a log with no populated bucket past the warmup boundary."""


class MetricsLog:
    """Raw counters for one scenario run plus run metadata."""

    __slots__ = (
        "policy",
        "seed",
        "config_hash",
        "warmup_ms",
        "duration_ms",
        "message_sizes",
        "counts",
        "duplicates",
    )

    def __init__(
        self,
        policy: str = "",
        seed: int = 0,
        config_hash: str = "",
        warmup_ms: int = 0,
        duration_ms: int = 0,
        message_sizes: dict[MessageKind, int] | None = None,
    ):
        self.policy = policy
        self.seed = seed
        self.config_hash = config_hash
        self.warmup_ms = warmup_ms
        self.duration_ms = duration_ms
        self.message_sizes = dict(message_sizes or DEFAULT_MESSAGE_SIZES)
        # (node, second, kind, "in"/"out") -> message count
        self.counts: dict[tuple[int, int, MessageKind, str], int] = defaultdict(int)
        # (node, second, kind) -> duplicate receipts
        self.duplicates: dict[tuple[int, int, MessageKind], int] = defaultdict(int)

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
    for (node, second, kind, direction), n in log.counts.items():
        if n == 0 or log.excluded(second):
            continue
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

    dup_total = sum(
        n for (_, second, _), n in log.duplicates.items() if not log.excluded(second)
    )

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


def export_csv(log: MetricsLog) -> str:
    """Deterministic CSV of every bucket row, plus duplicate rows keyed by
    the pseudo-direction "dup". Round-trips through import_csv byte-exactly."""
    rows: list[tuple[int, int, str, str, int, int, bool]] = []
    for (node, second, kind, direction), n in log.counts.items():
        if n == 0:
            continue
        size = log.message_sizes.get(kind, 0)
        rows.append((node, second, kind.value, direction, n, n * size, log.excluded(second)))
    for (node, second, kind), n in log.duplicates.items():
        if n == 0:
            continue
        size = log.message_sizes.get(kind, 0)
        rows.append((node, second, kind.value, "dup", n, n * size, log.excluded(second)))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    lines = [CSV_HEADER]
    for node, second, kind, direction, msgs, bytes_, excluded in rows:
        lines.append(
            f"{node},{second},{kind},{direction},{msgs},{bytes_},{'true' if excluded else 'false'}"
        )
    return "\n".join(lines) + "\n"


def import_csv(text: str) -> MetricsLog:
    """Rebuild a MetricsLog from export_csv output.

    Lines starting with '#' are ignored so annotated artifact files load
    too. The warmup boundary is recovered from the excluded flags; message
    sizes are recovered per kind from the bytes column.
    """
    log = MetricsLog()
    sizes: dict[MessageKind, int] = {}
    max_excluded = -1
    max_second = -1
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
        if direction not in ("in", "out", "dup"):
            raise ValueError(f"line {lineno}: unknown direction {direction!r}")
        msgs, bytes_ = int(parts[4]), int(parts[5])
        if parts[6] not in ("true", "false"):
            raise ValueError(f"line {lineno}: bad excluded flag {parts[6]!r}")
        if msgs > 0:
            sizes[kind] = bytes_ // msgs
        if direction == "dup":
            log.duplicates[(node, second, kind)] += msgs
        else:
            log.counts[(node, second, kind, direction)] += msgs
        if parts[6] == "true":
            max_excluded = max(max_excluded, second)
        max_second = max(max_second, second)
    if not header_seen and text.strip():
        raise ValueError("missing CSV header")
    log.warmup_ms = (max_excluded + 1) * 1000 if max_excluded >= 0 else 0
    log.duration_ms = (max_second + 1) * 1000 if max_second >= 0 else 0
    for kind, size in sizes.items():
        log.message_sizes[kind] = size
    return log
