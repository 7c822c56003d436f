from __future__ import annotations

import json

import pytest

from squelchsim.cli import main

K4_EDGES = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
PATH_EDGES = "0 1\n1 2\n"


@pytest.fixture
def small_config(tmp_path):
    doc = {
        "topology": {
            "node_count": 10,
            "target_avg_degree": 5.0,
            "validator_fraction": 0.3,
            "latency_range_ms": [5, 30],
        },
        "scenario": {
            "duration_ms": 20000,
            "warmup_ms": 2000,
            "ledger_round_ms": 500,
            "seed": 3,
            "tx_plan": [{"start_ms": 5000, "trackers": "all", "count": 50, "rate_per_s": 20}],
        },
        "protocol": {"count_threshold": 4, "max_selected": 2},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- simulate ---------------------------------------------------------------------

def test_simulate_writes_artifacts(tmp_path, small_config, capsys):
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "simulate", "--config", str(small_config),
                         "--out", str(out_dir))
    assert code == 0
    metrics = (out_dir / "metrics.csv").read_text()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert metrics.startswith("# config_hash=")
    assert "# seed=3" in metrics
    assert "# tool_version=" in metrics
    assert summary["policy"] == "flood"
    assert summary["seed"] == 3
    assert summary["config_hash"]
    assert summary["summary"]["avg_total_msgs_per_sec"] > 0


def test_simulate_unknown_key_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": {"duration_ms": 100, "spelch": 1}}))
    code, _, err = run_cli(capsys, "simulate", "--config", str(bad), "--out", str(tmp_path))
    assert code == 2
    assert "spelch" in err


def test_simulate_missing_config_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "--config", str(tmp_path / "none.json"),
                           "--out", str(tmp_path))
    assert code == 2


def test_simulate_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario": {duration_ms: 100}}')
    code, _, err = run_cli(capsys, "simulate", "--config", str(bad), "--out", str(tmp_path))
    assert code == 2
    assert "not valid JSON" in err


def test_simulate_squelch_kinds_string_exit_2(tmp_path, small_config, capsys):
    code, _, err = run_cli(capsys, "simulate", "--config", str(small_config),
                           "--out", str(tmp_path), "--set", "protocol.squelch_kinds=proposal")
    assert code == 2
    assert "protocol.squelch_kinds must be a list" in err


def test_simulate_deterministic_reruns(tmp_path, small_config, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, "simulate", "--config", str(small_config), "--out", str(out_a))[0] == 0
    assert run_cli(capsys, "simulate", "--config", str(small_config), "--out", str(out_b))[0] == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_simulate_seed_and_set_override(tmp_path, small_config, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "simulate", "--config", str(small_config), "--out", str(out_a),
            "--seed", "11")
    run_cli(capsys, "simulate", "--config", str(small_config), "--out", str(out_b),
            "--set", "scenario.seed=11")
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    assert "# seed=11" in (out_a / "metrics.csv").read_text()


def test_output_dir_from_environment(tmp_path, small_config, capsys, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("SQUELCHSIM_OUT", str(env_dir))
    code, _, _ = run_cli(capsys, "simulate", "--config", str(small_config))
    assert code == 0
    assert (env_dir / "metrics.csv").exists()


# --- compare ----------------------------------------------------------------------

def test_compare_artifacts_and_bands(tmp_path, small_config, capsys):
    out_dir = tmp_path / "cmp"
    code, out, _ = run_cli(capsys, "compare", "--config", str(small_config),
                           "--out", str(out_dir))
    assert code == 0
    report = json.loads((out_dir / "compare.json").read_text())
    assert report["savings"]["saved_percent"] > 0
    assert report["flood"]["avg_total_msgs_per_sec"] > report["squelch"]["avg_total_msgs_per_sec"]
    cumulative = (out_dir / "cumulative.csv").read_text()
    header = cumulative.splitlines()[4]
    assert header == (
        "second,flood_in,flood_out,squelch_in,squelch_out,"
        "flood_in_cum,flood_out_cum,squelch_in_cum,squelch_out_cum"
    )
    last = cumulative.strip().splitlines()[-1].split(",")
    assert int(last[5]) > int(last[7])  # flood cumulative above squelch


def test_compare_transaction_only_scenario_saves_nothing(tmp_path, capsys):
    doc = {
        "topology": {
            "node_count": 8,
            "target_avg_degree": 4.0,
            "validator_fraction": 0.2,
            "latency_range_ms": [5, 20],
        },
        "scenario": {
            "duration_ms": 10000,
            "warmup_ms": 1000,
            "ledger_round_ms": 60000,
            "seed": 5,
            "tx_plan": [{"start_ms": 2000, "trackers": "all", "count": 100, "rate_per_s": 50}],
        },
    }
    path = tmp_path / "tx_only.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "compare", "--config", str(path), "--out", str(out_dir))
    assert code == 0
    report = json.loads((out_dir / "compare.json").read_text())
    # transactions always flood; with no squelchable traffic in the window the
    # arms coincide and control overhead is reported on its own
    assert report["savings"]["saved_percent"] == pytest.approx(0.0, abs=0.5)
    assert report["squelch"]["control_overhead_msgs"] == 0


# --- fit --------------------------------------------------------------------------

def test_fit_predict_cli(cpu_csv_path, capsys):
    code, out, _ = run_cli(capsys, "fit", str(cpu_csv_path), "--predict", "200")
    assert code == 0
    payload = json.loads(out)
    assert payload["model"]["intercept"] == pytest.approx(15.8754, abs=0.001)
    assert payload["prediction"]["y"] == pytest.approx(39.41, abs=0.05)


def test_fit_gain_cli(cpu_csv_path, msgs_csv_path, capsys):
    code, out, _ = run_cli(
        capsys, "fit", str(msgs_csv_path), "--gain", "200", "0.28905",
        "--cpu-csv", str(cpu_csv_path),
    )
    assert code == 0
    gain = json.loads(out)["gain"]
    assert gain["freed_slots"] == pytest.approx(58, abs=1)
    assert gain["squelched"]["peers"] == pytest.approx(142, abs=1)


def test_fit_invert_flag(msgs_csv_path, capsys):
    code, out, _ = run_cli(capsys, "fit", str(msgs_csv_path), "--invert")
    payload = json.loads(out)
    assert payload["inverse"]["slope"] == pytest.approx(0.008088, abs=0.0002)


def test_fit_two_points(tmp_path, capsys):
    csv = tmp_path / "two.csv"
    csv.write_text("x,y\n0,0\n1,1\n")
    code, out, _ = run_cli(capsys, "fit", str(csv))
    payload = json.loads(out)
    assert payload["model"]["slope"] == 1.0
    assert payload["model"]["intercept"] == 0.0


def test_fit_degenerate_exit_2(tmp_path, capsys):
    csv = tmp_path / "flat.csv"
    csv.write_text("x,y\n1,5\n1,6\n")
    code, _, err = run_cli(capsys, "fit", str(csv))
    assert code == 2


def test_fit_gain_requires_cpu_csv(msgs_csv_path, capsys):
    code, _, err = run_cli(capsys, "fit", str(msgs_csv_path), "--gain", "200", "0.3")
    assert code == 2
    assert "cpu-csv" in err


# --- topo-stats --------------------------------------------------------------------

def test_topo_stats_k4(tmp_path, capsys):
    path = tmp_path / "k4.edges"
    path.write_text(K4_EDGES)
    code, out, _ = run_cli(capsys, "topo-stats", str(path))
    assert code == 0
    stats = json.loads(out)
    assert stats["diameter"] == 1
    assert stats["avg_degree"] == 3.0
    assert stats["connected"] is True


def test_topo_stats_path_graph(tmp_path, capsys):
    path = tmp_path / "p3.edges"
    path.write_text(PATH_EDGES)
    code, out, _ = run_cli(capsys, "topo-stats", str(path))
    stats = json.loads(out)
    assert stats["diameter"] == 2


def test_topo_stats_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("0 0\n")
    code, _, err = run_cli(capsys, "topo-stats", str(path))
    assert code == 2
    assert "line 1" in err
