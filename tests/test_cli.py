from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from squelchsim.cli import main
from squelchsim.regression import ExtrapolationWarning

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


@pytest.mark.parametrize("argv,message", [
    (["--set", 'scenario.duration_ms="abc"'], "scenario.duration_ms"),
    (["--set", "scenario.duration_ms=2000"], "need duration_ms > warmup_ms"),
    (["--set", "protocol.count_threshold=0"], "count_threshold must be at least 1"),
    (["--set", 'scenario.tx_plan=[{"start_ms":-5,"count":1}]'], "burst fields"),
    (["--set", 'scenario.disconnects=[{"at_ms":"x","node":1}]'],
     "scenario.disconnects[0].at_ms"),
    (["--set", "topology.latency_range_ms=5"], "topology.latency_range_ms"),
    (["--set", 'scenario.message_sizes={"transaction":0}'], "message sizes must be positive"),
    (["fit", "--gain", "200", "abc"], "--gain"),
    (["--set", "scenario.disconnects=5"], "scenario.disconnects"),
    (["--set", "scenario.message_sizes=5"], "scenario.message_sizes"),
    (["--set", "output.dir=5"], "output.dir"),
    (["--set", 'metrics.include_control_in_total="no"'], "metrics.include_control_in_total"),
    (["--set", "scenario.seed=1.5"], "scenario.seed"),
    (["--set", "scenario.duration_ms=3000.7"], "scenario.duration_ms"),
    (["--set", "scenario.proposals_per_round=true"], "scenario.proposals_per_round"),
    (["--set", "topology.validators=[1]"], "'validators'"),
    (["--set", 'scenario.tx_plan=[{"start_ms":0,"count":1,"trackers":5}]'],
     "scenario.tx_plan[0].trackers"),
    (["--set", 'scenario.tx_plan=[{"start_ms":0,"count":1,"trackers":"abc"}]'],
     "scenario.tx_plan[0].trackers"),
    (["--set", 'protocol.squelch_kinds=["squelch"]'], "squelch_kinds"),
    (["--set", "topology.latency_range_ms=[NaN,5]"], "topology.latency_range_ms[0]"),
    (["--set", "topology.target_avg_degree=" + "1" * 400], "topology.target_avg_degree"),
    (["--set", 'scenario.message_sizes={"squelch":-3}'], "message sizes must be positive"),
    (["fit", "--predict=nan"], "--predict"),
    (["fit", "--predict=-inf"], "--predict"),
])
def test_malformed_value_exit_2(argv, message, tmp_path, small_config, cpu_csv_path,
                                msgs_csv_path, capsys):
    if argv[0] == "fit":
        argv = ["fit", str(msgs_csv_path), *argv[1:], "--cpu-csv", str(cpu_csv_path)]
    else:
        argv = ["simulate", "--config", str(small_config), "--out", str(tmp_path), *argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and message in err


def test_simulate_no_emitter_exit_2(tmp_path, capsys):
    edges = tmp_path / "k4.edges"
    edges.write_text(K4_EDGES)
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "topology": {"file": str(edges), "validators": []},
        "scenario": {"duration_ms": 20000, "warmup_ms": 2000},
    }))
    code, _, err = run_cli(capsys, "simulate", "--config", str(config), "--out", str(tmp_path))
    assert code == 2
    assert "nothing emits" in err


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_empty_window_exit_2(command, tmp_path, capsys):
    # Every edge takes longer than the run, so no bucket past the warm-up
    # holds a message: the config has no window to summarise.
    code, out, err = run_cli(
        capsys, command, "--config", str(REFERENCE_CONFIG), "--out", str(tmp_path),
        "--set", "topology.latency_range_ms=[5,1e300]",
        "--set", "scenario.duration_ms=12000", "--set", "scenario.warmup_ms=1000",
    )
    assert (code, out) == (2, "")
    assert err == "error: no populated bucket past the warmup boundary\n"


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


def test_compare_writes_typed_seed(tmp_path, small_config, capsys):
    # An integral float seed is the int 7 in every artifact, as in simulate's.
    sim, cmp = tmp_path / "sim", tmp_path / "cmp"
    for cmd, out in (("simulate", sim), ("compare", cmp)):
        code, _, _ = run_cli(capsys, cmd, "--config", str(small_config), "--out", str(out),
                             "--set", "scenario.seed=7.0")
        assert code == 0
    assert "# seed=7\n" in (sim / "metrics.csv").read_text()
    assert "# seed=7\n" in (cmp / "cumulative.csv").read_text()
    assert '"seed": 7,' in (sim / "summary.json").read_text()
    assert '"seed": 7,' in (cmp / "compare.json").read_text()
    hashes = {json.loads((sim / "summary.json").read_text())["config_hash"],
              json.loads((cmp / "compare.json").read_text())["config_hash"]}
    code, _, _ = run_cli(capsys, "compare", "--config", str(small_config),
                         "--out", str(tmp_path / "int"), "--seed", "7")
    assert code == 0
    hashes.add(json.loads((tmp_path / "int" / "compare.json").read_text())["config_hash"])
    assert len(hashes) == 1


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
    with pytest.warns(ExtrapolationWarning, match=r"at x=200\.0, outside"):
        code, out, _ = run_cli(capsys, "fit", str(cpu_csv_path), "--predict", "200")
    assert code == 0
    payload = json.loads(out)
    assert payload["model"]["intercept"] == pytest.approx(15.8754, abs=0.001)
    assert payload["prediction"]["y"] == pytest.approx(39.41, abs=0.05)


def test_fit_gain_cli(cpu_csv_path, msgs_csv_path, capsys):
    with pytest.warns(ExtrapolationWarning):
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


@pytest.mark.parametrize("row", ["2,oops", "2,3,4", "nan,1", "1,1e400"])
def test_fit_bad_point_exit_2(row, tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text(f"x,y\n0,0\n1,1\n{row}\n")
    code, out, err = run_cli(capsys, "fit", str(csv))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 4")


@pytest.mark.parametrize("rows", [
    "1e200,1\n2e200,3\n3e200,4\n",  # (x - x_mean) ** 2 overflows
    "0,1e200\n1,-1e200\n2,1e200\n",  # so does (y - y_mean) ** 2
    "1,0\n1.0000000000000002,1e300\n",  # finite sums, infinite slope
], ids=["huge-x", "huge-y", "steep"])
def test_fit_overflowing_points_exit_2(rows, tmp_path, capsys):
    csv = tmp_path / "huge.csv"
    csv.write_text("x,y\n" + rows)
    code, out, err = run_cli(capsys, "fit", str(csv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "overflows floating point" in err


def test_fit_predict_overflow_exit_2(msgs_csv_path, capsys):
    with pytest.warns(ExtrapolationWarning):
        code, out, err = run_cli(capsys, "fit", str(msgs_csv_path), "--predict", "1e308")
    assert (code, out) == (2, "")
    assert err.startswith("error: --predict 1e+308 overflows")


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


@pytest.mark.parametrize("latency", ["nan", "inf", "1e400"])
def test_non_finite_latency_exit_2(latency, tmp_path, capsys):
    edges = tmp_path / "bad.edges"
    edges.write_text(f"0 1 5\n1 2 {latency}\n0 2 5\n")
    code, _, err = run_cli(capsys, "topo-stats", str(edges))
    assert code == 2
    assert "line 2" in err
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "topology": {"file": str(edges), "validators": [0]},
        "scenario": {"duration_ms": 3000, "warmup_ms": 0},
    }))
    code, _, err = run_cli(capsys, "compare", "--config", str(config), "--out", str(tmp_path))
    assert code == 2
    assert "line 2" in err


# --- pinned output bytes -------------------------------------------------------------

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference_testbed.json"
# Disconnected, with integer, fractional and default latencies.
PINNED_EDGES = "0 1 5\n1 2 7.5\n2 3\n3 0 9\n2 4 1\n5 6 3\n6 7 2\n"

# sha256 of CLI outputs: `compare` on the reference testbed cut to 32
# simulated seconds (seed 1), `topo-stats` on PINNED_EDGES, and
# `fit --gain 200 0.28905` on the shipped data. Any change is a change of the
# JSON or CSV bytes the CLI writes.
PINNED_CLI_SHA256 = {
    "compare.json": "8ccbef8532d728c96849e7b9895d8c11e709fafc6488f8858e01c4a0c0dee256",
    "cumulative.csv": "544c7fd558602fd6af82e3e35db0be6fafb530a62d5e557089e54f868d09c018",
    "topo-stats": "9db5283a726a8bf95f5d7db071b49114ba2c22cf57b61225e786799886da158d",
    "fit --gain": "d674e3f01a04e3f9b9ddb52c17ad77c01d9e708ffde51f6ddf731c3aa5d18cda",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_compare_artifact_bytes_pinned(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "compare", "--config", str(REFERENCE_CONFIG), "--seed", "1",
                         "--set", "scenario.duration_ms=32000", "--out", str(tmp_path))
    assert code == 0
    for name in ("compare.json", "cumulative.csv"):
        assert _sha256((tmp_path / name).read_bytes()) == PINNED_CLI_SHA256[name], name


def test_topo_stats_stdout_pinned(tmp_path, capsys):
    path = tmp_path / "pinned.edges"
    path.write_text(PINNED_EDGES)
    code, out, _ = run_cli(capsys, "topo-stats", str(path))
    assert code == 0
    assert _sha256(out.encode("utf-8")) == PINNED_CLI_SHA256["topo-stats"]


def test_fit_gain_stdout_pinned(cpu_csv_path, msgs_csv_path, capsys):
    with pytest.warns(ExtrapolationWarning):
        code, out, _ = run_cli(capsys, "fit", str(msgs_csv_path), "--gain", "200", "0.28905",
                               "--cpu-csv", str(cpu_csv_path))
    assert code == 0
    assert _sha256(out.encode("utf-8")) == PINNED_CLI_SHA256["fit --gain"]
