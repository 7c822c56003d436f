"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line with its elapsed time and asserting its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import io
import json
import random
import time
import warnings
from contextlib import contextmanager, redirect_stdout

import pytest

from squelchsim.cli import main as cli_main
from squelchsim.engine import RelayPolicy, ScenarioConfig, TxBurst, run_scenario
from squelchsim.messages import MessageKind
from squelchsim.metrics import savings, summarize
from squelchsim.regression import ExtrapolationWarning, fit_linear
from squelchsim.squelch import ProtocolConfig
from squelchsim.topology import generate_topology

from conftest import CPU_VS_PEERS, MESSAGES_VS_PEERS
from test_engine import assert_complete, completeness_scenario, out_total
from test_squelch import enumerate_all_orders


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_1_regression_reproduction():
    with criterion(1, "regression fits reproduce the reference coefficients", 1.0):
        cpu = fit_linear(CPU_VS_PEERS, x_name="peers", y_name="cpu_percent")
        assert cpu.intercept == pytest.approx(15.8754, abs=0.001)
        assert cpu.slope == pytest.approx(0.1177, abs=0.0001)
        assert cpu.r_squared > 0.96
        msgs = fit_linear(MESSAGES_VS_PEERS, x_name="peers", y_name="messages_per_s")
        assert msgs.intercept == pytest.approx(-75.0943, abs=0.05)
        assert msgs.slope == pytest.approx(123.6365, abs=0.005)
        assert msgs.r_squared > 0.96


def test_criterion_2_extrapolation_reproduction(cpu_csv_path, msgs_csv_path):
    with criterion(2, "gain extrapolation reproduces the 200-peer projection", 1.0):
        captured = io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(captured):
            warnings.simplefilter("ignore", ExtrapolationWarning)
            code = cli_main(
                [
                    "fit",
                    str(msgs_csv_path),
                    "--gain",
                    "200",
                    "0.28905",
                    "--cpu-csv",
                    str(cpu_csv_path),
                ]
            )
        assert code == 0
        gain = json.loads(captured.getvalue())["gain"]
        assert gain["baseline"]["messages_per_s"] == pytest.approx(24652, abs=1)
        assert gain["baseline"]["cpu_percent"] == pytest.approx(39.41, abs=0.05)
        assert gain["squelched"]["peers"] == pytest.approx(142, abs=1)
        assert gain["squelched"]["messages_per_s"] == pytest.approx(17527, abs=15)
        assert 32.55 <= gain["squelched"]["cpu_percent"] <= 32.66
        assert gain["freed_slots"] == pytest.approx(58, abs=1)
        assert gain["connectivity_gain_percent"] == pytest.approx(29.0, abs=0.5)


def test_criterion_3_savings_arithmetic():
    with criterion(3, "savings arithmetic on the reference per-second averages", 1.0):
        report = savings(297.633, 211.602)
        assert report.saved_percent == pytest.approx(28.905, abs=0.001)


def test_criterion_4_flood_transmission_oracle():
    with criterion(4, "flooding one message costs exactly 2|E| - (N-1)", 10.0):
        for seed in range(100):
            rng = random.Random(1000 + seed)
            n = rng.randint(5, 50)
            degree = min(n - 1, rng.uniform(2.5, 9))
            graph = generate_topology(n, degree, 0.3, (5, 30), seed=seed)
            tracker = sorted(graph.tracker_set)[0]
            cfg = ScenarioConfig(
                topology=graph,
                duration_ms=8000,
                relay_policy=RelayPolicy.FLOOD,
                ledger_round_ms=100_000,
                warmup_ms=0,
                tx_plan=(TxBurst(start_ms=100.0, trackers=(tracker,), count=1),),
            )
            log = run_scenario(cfg)
            expected = 2 * graph.edge_count - (n - 1)
            assert out_total(log, MessageKind.TRANSACTION) == expected, f"seed {seed}"


def test_criterion_5_delivery_completeness():
    with criterion(5, "every message reaches every node under both policies", 60.0):
        for seed in range(100):
            for policy in (RelayPolicy.FLOOD, RelayPolicy.SQUELCH):
                graph, cfg = completeness_scenario(seed, policy)
                log = run_scenario(cfg)
                assert_complete(graph, cfg, log)


def test_criterion_6_squelch_benefit_band():
    with criterion(6, "squelching saves 15-45% of per-second traffic", 30.0):
        for seed in range(10):
            graph = generate_topology(15, 8.0, 1 / 3, (5, 50), seed=seed)
            assert len(graph.validator_set) == 5
            trackers = tuple(sorted(graph.tracker_set))
            plan = (
                TxBurst(start_ms=30_000.0, trackers=trackers, count=1000, rate_per_s=100.0),
                TxBurst(start_ms=60_000.0, trackers=trackers, count=1000, rate_per_s=100.0),
            )
            summaries = {}
            app_out = {}
            for policy in (RelayPolicy.FLOOD, RelayPolicy.SQUELCH):
                cfg = ScenarioConfig(
                    topology=graph,
                    duration_ms=120_000,
                    relay_policy=policy,
                    ledger_round_ms=1000,
                    proposals_per_round=1,
                    tx_plan=plan,
                    protocol=ProtocolConfig(),
                    seed=seed,
                    warmup_ms=10_000,
                )
                log = run_scenario(cfg)
                summaries[policy] = summarize(log)
                app_out[policy] = out_total(log, application_only=True)
            assert (
                summaries[RelayPolicy.SQUELCH].avg_application_msgs_per_sec
                < summaries[RelayPolicy.FLOOD].avg_application_msgs_per_sec
            ), f"seed {seed}: squelch not strictly below flood"
            assert app_out[RelayPolicy.SQUELCH] <= app_out[RelayPolicy.FLOOD]
            saved = savings(
                summaries[RelayPolicy.FLOOD], summaries[RelayPolicy.SQUELCH]
            ).saved_percent
            assert 15.0 <= saved <= 45.0, f"seed {seed}: saved {saved:.2f}% out of band"


def test_criterion_7_protocol_state_machine():
    with criterion(7, "selection automaton exact over all arrival orders", 10.0):
        # exhaustive arrival-order enumeration, k <= 5 peers, threshold <= 3
        for k in range(2, 6):
            for threshold in (1, 2, 3):
                for max_selected in (1, 2, 3):
                    if max_selected > k:
                        continue
                    outcomes = enumerate_all_orders(k, threshold, max_selected)
                    for selected, squelched in outcomes:
                        assert len(selected) == max_selected
                        assert len(squelched) == k - max_selected
                        assert selected | squelched == set(range(k))

        # expiry restores counting and the freed peer can win re-selection
        from squelchsim.squelch import (
            Slot,
            SlotState,
            on_squelch_expired,
            on_uplink_lost,
            on_validator_message,
        )

        cfg = ProtocolConfig(count_threshold=2, max_selected=2, squelch_jitter_ms=0)
        slot = Slot(owner=0, origin_validator=100)
        for peer in (1, 1, 2, 2, 3):
            on_validator_message(slot, peer, 0.0, cfg)
        assert set(slot.squelched) == {3}
        on_squelch_expired(slot, 3, slot.squelched[3])
        assert slot.state is SlotState.COUNTING
        on_validator_message(slot, 3, 1000.0, cfg)
        on_validator_message(slot, 3, 1001.0, cfg)
        assert 3 in slot.selected

        # losing a selected uplink unsquelches every squelched peer of the slot
        slot = Slot(owner=0, origin_validator=100)
        slot.selected = {2, 3, 4}
        slot.squelched = {1: 1e12, 5: 1e12}
        slot.state = SlotState.SELECTED
        actions = on_uplink_lost(slot, 3, 0.0)
        assert sorted(peer for peer, _ in actions) == [1, 5]
        assert slot.squelched == {}
        assert slot.state is SlotState.COUNTING


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "identical config and seed give byte-identical metrics", 30.0):
        doc = {
            "topology": {
                "node_count": 12,
                "target_avg_degree": 6.0,
                "validator_fraction": 0.25,
                "latency_range_ms": [5, 40],
            },
            "scenario": {
                "duration_ms": 15_000,
                "warmup_ms": 1000,
                "ledger_round_ms": 500,
                "seed": 2,
                "tx_plan": [
                    {"start_ms": 3000, "trackers": "all", "count": 60, "rate_per_s": 30}
                ],
            },
            "protocol": {"count_threshold": 4, "max_selected": 2},
        }
        config_path = tmp_path / "det.json"
        config_path.write_text(json.dumps(doc))
        for policy in ("flood", "squelch"):
            outputs = []
            for run in ("a", "b"):
                out_dir = tmp_path / f"{policy}_{run}"
                with redirect_stdout(io.StringIO()):
                    code = cli_main(
                        [
                            "simulate",
                            "--config",
                            str(config_path),
                            "--out",
                            str(out_dir),
                            "--set",
                            f"scenario.relay_policy={policy}",
                        ]
                    )
                assert code == 0
                outputs.append((out_dir / "metrics.csv").read_bytes())
            assert outputs[0] == outputs[1], f"{policy} runs diverged"
