from __future__ import annotations

import io
import pickle
import random
from fractions import Fraction

import pytest

from squelchsim.cli import _cumulative_series, _second_sums
from squelchsim.engine import RelayPolicy, ScenarioConfig, TxBurst, run_scenario
from squelchsim.messages import APPLICATION_KINDS, MessageKind
from squelchsim.metrics import (
    CSV_HEADER,
    DIRECTIONS,
    EmptyWindowError,
    MetricsLog,
    ZeroFloodAverageError,
    export_csv,
    import_csv,
    savings,
    summarize,
)
from squelchsim.squelch import ProtocolConfig
from squelchsim.topology import load_topology


def make_log(warmup_ms=0, duration_ms=10_000):
    return MetricsLog(policy="flood", seed=1, config_hash="abc",
                      warmup_ms=warmup_ms, duration_ms=duration_ms, nodes=range(4))


def fill_random(log, seed, nodes=4, seconds=12):
    rng = random.Random(seed)
    kinds = list(MessageKind)
    for _ in range(300):
        node = rng.randrange(nodes)
        second = rng.randrange(seconds)
        kind = rng.choice(kinds)
        direction = rng.choice(["in", "out"])
        for _ in range(rng.randint(1, 5)):
            log.add(node, second, kind, direction)
    for _ in range(40):
        log.add(rng.randrange(nodes), rng.randrange(seconds), rng.choice(kinds), "dup")
    return log


# --- summarize -----------------------------------------------------------------

def test_single_bucket_average():
    log = make_log()
    log.add(0, 3, MessageKind.PROPOSAL, "in", 10)
    log.add(0, 3, MessageKind.PROPOSAL, "out", 5)
    assert summarize(log).avg_total_msgs_per_sec == 15.0


def test_two_bucket_mean():
    log = make_log()
    log.add(1, 2, MessageKind.VALIDATION, "in", 10)
    log.add(1, 7, MessageKind.VALIDATION, "in", 20)
    assert summarize(log).avg_total_msgs_per_sec == 15.0


def test_summarize_matches_recount_oracle():
    log = fill_random(make_log(warmup_ms=3000), seed=5)
    summary = summarize(log)
    # independent recount straight off the raw rows
    included = {s for (_, s, _, _), n in log.counts.items() if n and s * 1000 >= 3000}
    total = sum(
        n for (_, s, _, _), n in log.counts.items() if s * 1000 >= 3000
    )
    assert summary.seconds_observed == len(included)
    assert summary.avg_total_msgs_per_sec == pytest.approx(total / len(included))
    dup_total = sum(n for (_, s, _), n in log.duplicates.items() if s * 1000 >= 3000)
    assert summary.total_duplicates == dup_total


def test_per_kind_averages_sum_exactly():
    log = fill_random(make_log(), seed=9)
    summary = summarize(log)
    window = summary.seconds_observed
    exact_sum = sum(
        Fraction(n, window)
        for per_dir in summary.per_kind_totals.values()
        for n in per_dir.values()
    )
    assert Fraction(sum(sum(d.values()) for d in summary.per_kind_totals.values()), window) == exact_sum
    assert summary.avg_total_msgs_per_sec == pytest.approx(float(exact_sum))


def test_warmup_exclusion_and_empty_window():
    log = make_log(warmup_ms=10_000)
    log.add(0, 4, MessageKind.PROPOSAL, "in")
    with pytest.raises(EmptyWindowError):
        summarize(log)
    log.add(0, 10, MessageKind.PROPOSAL, "in")
    assert summarize(log).avg_total_msgs_per_sec == 1.0


def test_control_split_and_flag():
    log = make_log()
    log.add(0, 1, MessageKind.PROPOSAL, "in", 6)
    log.add(0, 1, MessageKind.SQUELCH, "out", 2)
    with_control = summarize(log, include_control=True)
    without = summarize(log, include_control=False)
    assert with_control.avg_total_msgs_per_sec == 8.0
    assert without.avg_total_msgs_per_sec == 6.0
    assert with_control.control_overhead_msgs == 2
    assert with_control.avg_application_msgs_per_sec == 6.0
    assert with_control.avg_control_msgs_per_sec == 2.0


# --- savings ---------------------------------------------------------------------

def test_savings_reference_values():
    report = savings(297.633, 211.602)
    assert report.ratio_percent == pytest.approx(71.094, abs=0.001)
    assert report.saved_percent == pytest.approx(28.905, abs=0.001)


def test_savings_identity_and_arithmetic():
    assert savings(100.0, 100.0).saved_percent == 0.0
    assert savings(200.0, 50.0).saved_percent == 75.0


def test_savings_zero_flood():
    with pytest.raises(ZeroFloodAverageError):
        savings(0.0, 10.0)


def test_savings_antitone_in_squelch_average():
    rng = random.Random(2)
    flood = 500.0
    values = sorted(rng.uniform(1, 499) for _ in range(10))
    saved = [savings(flood, v).saved_percent for v in values]
    assert saved == sorted(saved, reverse=True)


def test_savings_accepts_run_summaries():
    log_a = make_log()
    log_b = make_log()
    log_a.add(0, 1, MessageKind.PROPOSAL, "in", 20)
    log_b.add(0, 1, MessageKind.PROPOSAL, "in", 10)
    report = savings(summarize(log_a), summarize(log_b))
    assert report.saved_percent == 50.0


# --- CSV export / import -----------------------------------------------------------

def test_export_empty_log():
    assert export_csv(make_log()) == CSV_HEADER + "\n"


def test_export_one_bucket_rows():
    log = make_log()
    log.add(2, 5, MessageKind.VALIDATION, "in")
    log.add(2, 5, MessageKind.VALIDATION, "out")
    text = export_csv(log)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "2,5,validation,in,1,150,false"
    assert lines[2] == "2,5,validation,out,1,150,false"
    assert len(lines) == 3


def test_export_sorted_and_flags():
    log = make_log(warmup_ms=6000)
    log.add(1, 9, MessageKind.PROPOSAL, "out")
    log.add(0, 2, MessageKind.TRANSACTION, "in")
    log.add(0, 2, MessageKind.TRANSACTION, "dup")
    lines = export_csv(log).strip().split("\n")[1:]
    assert lines == [
        "0,2,transaction,dup,1,600,true",
        "0,2,transaction,in,1,600,true",
        "1,9,proposal,out,1,200,false",
    ]


def test_round_trip_byte_identical():
    log = fill_random(make_log(warmup_ms=4000), seed=13)
    first = export_csv(log)
    second = export_csv(import_csv(first))
    assert second == first


def test_round_trip_summary_identical():
    log = fill_random(make_log(warmup_ms=4000), seed=21)
    assert summarize(import_csv(export_csv(log))) == summarize(log)


def test_import_skips_comment_lines():
    log = make_log()
    log.add(0, 1, MessageKind.PROPOSAL, "in")
    annotated = "# config_hash=deadbeef\n# seed=5\n" + export_csv(log)
    assert export_csv(import_csv(annotated)) == export_csv(log)


def test_import_rejects_garbage():
    with pytest.raises(ValueError):
        import_csv("definitely,not,the,header\n")
    with pytest.raises(ValueError):
        import_csv(CSV_HEADER + "\n0,1,proposal,sideways,1,200,false\n")
    with pytest.raises(ValueError):
        import_csv(CSV_HEADER + "\n0,1,warbles,in,1,200,false\n")


def test_bytes_match_message_sizes():
    log = make_log()
    sizes = log.message_sizes
    log.add(3, 2, MessageKind.TRANSACTION, "out", 7)
    for line in export_csv(log).strip().split("\n")[1:]:
        node, second, kind, direction, msgs, bytes_, excluded = line.split(",")
        assert int(bytes_) == int(msgs) * sizes[MessageKind(kind)]


def test_streamed_export_equals_string(tmp_path):
    log = fill_random(make_log(warmup_ms=4000), seed=17)
    out = io.StringIO()
    assert export_csv(log, out) is None
    assert out.getvalue() == export_csv(log)
    path = tmp_path / "metrics.csv"
    with open(path, "w", encoding="utf-8") as f:
        export_csv(log, f)
    assert path.read_text(encoding="utf-8") == export_csv(log)


def test_count_views_are_read_only():
    log = fill_random(make_log(), seed=3)
    key = next(iter(log.counts))
    with pytest.raises(TypeError):
        log.counts[key] += 1
    with pytest.raises(TypeError):
        log.duplicates[(0, 1, MessageKind.PROPOSAL)] = 1
    assert log.counts == import_csv(export_csv(log)).counts


# --- the dense table over node ids that are not contiguous ------------------------

SPARSE_EDGES = "3 17 10\n17 100 12.5\n100 1000 7\n1000 3 21\n3 100 15\n17 1000 30\n"


def sparse_log():
    graph = load_topology(SPARSE_EDGES, {3, 100})
    return run_scenario(ScenarioConfig(
        topology=graph, duration_ms=6000, relay_policy=RelayPolicy.SQUELCH,
        ledger_round_ms=500, tx_plan=(TxBurst(1200.0, (17, 1000), 12, 8.0),),
        protocol=ProtocolConfig(count_threshold=2, max_selected=1, squelch_base_ms=1000,
                                squelch_jitter_ms=500),
        warmup_ms=2000))


def recount(text, include_control=True):
    """(seconds observed, total messages, duplicates) past the warmup, read
    straight off the CSV lines."""
    seconds, total, dups = set(), 0, 0
    for line in text.splitlines()[1:]:
        node, second, kind, direction, msgs, _, excluded = line.split(",")
        if excluded == "true":
            continue
        if direction == "dup":
            dups += int(msgs)
        else:
            seconds.add(int(second))
            if include_control or MessageKind(kind) in APPLICATION_KINDS:
                total += int(msgs)
    return seconds, total, dups


def test_sparse_node_ids_export_in_numeric_order():
    log = sparse_log()
    assert log.nodes == [3, 17, 100, 1000]
    text = export_csv(log)
    keys = [line.split(",") for line in text.splitlines()[1:]]
    assert {int(k[0]) for k in keys} == {3, 17, 100, 1000}
    assert {k[2] for k in keys} >= {"proposal", "validation", "transaction", "squelch"}
    # Numeric node order (1000 after 100), then second, kind and direction.
    order = [(int(k[0]), int(k[1]), k[2], DIRECTIONS.index(k[3])) for k in keys]
    assert order == sorted(order) and len(set(order)) == len(order)
    assert export_csv(import_csv(text)) == text


@pytest.mark.parametrize("include_control", [True, False])
def test_sparse_node_ids_summarize_matches_recount(include_control):
    log = sparse_log()
    summary = summarize(log, include_control=include_control)
    seconds, total, dups = recount(export_csv(log), include_control)
    assert summary.seconds_observed == len(seconds) > 0
    assert summary.avg_total_msgs_per_sec == pytest.approx(total / len(seconds))
    assert summary.total_duplicates == dups


def test_all_zero_row_adds_no_second():
    log = sparse_log()
    before = (summarize(log), export_csv(log), _cumulative_series(_second_sums(log), _second_sums(log)))
    last = max(second for second, _ in log.rows)
    # Reading a row creates it at zero; so does a count brought back to zero.
    log.rows[last + 3, MessageKind.PROPOSAL]
    log.add(1000, last + 5, MessageKind.VALIDATION, "in", 4)
    log.add(1000, last + 5, MessageKind.VALIDATION, "in", -4)
    assert (summarize(log), export_csv(log), _cumulative_series(_second_sums(log), _second_sums(log))) == before


def test_squelch_run_log_round_trips_through_pickle():
    log = sparse_log()
    copy = pickle.loads(pickle.dumps(log))
    assert export_csv(copy) == export_csv(log) and copy.index == log.index
    last = max(second for second, _ in copy.rows)
    assert copy.rows[last + 1, MessageKind.SQUELCH] == ([0] * 4, [0] * 4, [0] * 4)
    copy.add(1000, last + 1, MessageKind.SQUELCH, "out", 2)
    assert copy.rows[last + 1, MessageKind.SQUELCH] == ([0] * 4, [0] * 4, [0, 0, 0, 2])
    assert (last + 1, MessageKind.SQUELCH) not in log.rows
