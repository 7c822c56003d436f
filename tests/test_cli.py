from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import squelchsim
from squelchsim import cli, config
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
    (["fit", "--gain", str(10**400), "0.3"], "baseline_peers"),
    (["--set", 'scenario.disconnects=[{"at_ms":-5,"node":0}]'],
     "disconnect at_ms must be non-negative"),
    (["fit", "--gain", "200"], "--gain takes BASELINE_PEERS SAVED_FRACTION"),
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


@pytest.mark.parametrize("argv,message", [
    (["compare", "--config", "{latin1}", "--out", "{out}"], "'utf-8' codec can't decode"),
    (["topo-stats", "{latin1}"], "'utf-8' codec can't decode"),
    (["fit", "{latin1}"], "'utf-8' codec can't decode"),
    (["fit", "{msgs}", "--gain", "200", "0.3", "--cpu-csv", "{latin1}"],
     "'utf-8' codec can't decode"),
    (["compare", "--config", "{config}", "--out", "{taken}"], "File exists"),
    (["simulate", "--config", "{config}", "--out", "{taken}"], "File exists"),
    (["compare", "--config", "{config}", "--out", "{taken}/out"], "Not a directory"),
    (["fit", "{taken}/points.csv"], "Not a directory"),
    (["simulate", "--config", "{config}", "--out", "{blocked}"], "Is a directory"),
    (["compare", "--config", "{config}", "--out", "{blocked}"], "Is a directory"),
])
def test_undecodable_input_or_unusable_output_path_exit_2(argv, message, tmp_path, small_config,
                                                          msgs_csv_path, capsys):
    # An input file that is not UTF-8, an --out that names a file or a path
    # under one, and an artifact path that is a directory are usage errors,
    # not runtime failures.
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("x,y\n1,caf\u00e9\n".encode("latin-1"))
    taken = tmp_path / "taken"
    taken.write_text("")
    blocked = tmp_path / "blocked"
    for name in ("metrics.csv", "compare.json"):
        (blocked / name).mkdir(parents=True)
    paths = {"latin1": latin1, "config": small_config, "msgs": msgs_csv_path, "taken": taken,
             "out": tmp_path / "out", "blocked": blocked}
    code, _, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
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
    assert list(tmp_path.iterdir()) == []  # summarized before any artifact is written


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


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("override", [["--seed", "-1"], ["--set", "scenario.seed=-1"]])
def test_negative_seed_exit_2(command, override, tmp_path, small_config, capsys):
    # random.Random(-1) is random.Random(1): a negative seed would repeat
    # its positive twin's run under another config hash.
    code, out, err = run_cli(capsys, command, "--config", str(small_config),
                             "--out", str(tmp_path), *override)
    assert (code, out) == (2, "")
    assert err == "error: seed must be non-negative\n"
    assert list(tmp_path.iterdir()) == [small_config]


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


def test_node_id_beyond_int64_exit_2(tmp_path, capsys):
    # Squelch durations hash node ids as signed 64-bit ints, so the loader
    # refuses 2**63 up front instead of failing inside the squelch arm.
    big = 2**63
    edges = tmp_path / "big.edges"
    edges.write_text(K4_EDGES + f"1 {big} 12\n0 {big} 12\n3 {big} 12\n")
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "topology": {"file": str(edges), "validators": [0, 2]},
        "scenario": {"duration_ms": 20000, "warmup_ms": 2000, "relay_policy": "squelch"},
        "protocol": {"count_threshold": 2, "max_selected": 1},
    }))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "simulate", "--config", str(config), "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 7: node ids must lie in [0, 2**63)")


# --- runs too large for the machine -------------------------------------------------

def generation_spy(monkeypatch):
    """Spy on the topology generator the config layer calls: a list of its
    calls, made without running it."""
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        raise AssertionError("the generator ran")

    monkeypatch.setattr(config, "generate_topology", spy)
    return calls


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_run_larger_than_memory_exit_2_before_generation(command, tmp_path, small_config,
                                                         capsys, monkeypatch):
    # The small config holds at least 20 x 2 x (320 + 10 x 3 x 8) = 22400
    # bytes of log (25 edges need 4500): more than 8 KiB of memory.
    monkeypatch.setattr(config, "_physical_memory", lambda: 8192)
    calls = generation_spy(monkeypatch)
    code, out, err = run_cli(capsys, command, "--config", str(small_config),
                             "--out", str(tmp_path / "out"))
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: 10 nodes, 25 edges and 20000 ms need at least")
    assert "physical memory" in err
    assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())


def test_billions_of_nodes_exit_2_before_generation(tmp_path, small_config, capsys,
                                                    monkeypatch):
    """10**12 nodes need petabytes for their edges alone, more than any
    machine's physical memory; the spy keeps the generator from running if
    the refusal fails."""
    calls = generation_spy(monkeypatch)
    code, out, err = run_cli(capsys, "compare", "--config", str(small_config),
                             "--out", str(tmp_path), "--set", "topology.node_count=1000000000000")
    assert (code, out, calls) == (2, "", [])
    assert "physical memory" in err


def test_long_run_on_an_edge_list_exit_2(tmp_path, capsys, monkeypatch):
    # 10**15 simulated seconds of a K4 log are refused before the run.
    monkeypatch.setattr(cli, "run_scenario", lambda cfg: pytest.fail("the run started"))
    edges = tmp_path / "k4.edges"
    edges.write_text(K4_EDGES)
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps({
        "topology": {"file": str(edges), "validators": [0]},
        "scenario": {"duration_ms": 10**18, "warmup_ms": 0},
    }))
    code, out, err = run_cli(capsys, "simulate", "--config", str(config_path),
                             "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: 4 nodes, 6 edges and 1000000000000000000 ms need at least")


def test_transaction_plan_larger_than_memory_exit_2_before_the_run(tmp_path, small_config,
                                                                 capsys, monkeypatch):
    """10**15 planned transactions need petabytes for their emission records
    alone, more than any machine's physical memory: refused before
    `run_scenario` starts, which would append one record per transaction."""
    monkeypatch.setattr(cli, "run_scenario", lambda cfg: pytest.fail("the run started"))
    plan = json.dumps([{"start_ms": 0, "count": 10**15, "rate_per_s": 100}])
    code, out, err = run_cli(capsys, "simulate", "--config", str(small_config),
                             "--out", str(tmp_path), "--set", f"scenario.tx_plan={plan}")
    assert (code, out) == (2, "")
    assert "with 1000000000000000 planned transactions" in err
    assert "physical memory" in err


def test_long_small_graph_run_counts_each_log_row_exit_2(tmp_path, capsys, monkeypatch):
    """1000 s of K4 rounds: 2000 log rows of 96 bytes of cells each, 192,000
    bytes, fit in 400,000 bytes of memory, but with each row's fixed cost
    (its key, dict slot, tuple and list headers) they need 832,000."""
    monkeypatch.setattr(config, "_physical_memory", lambda: 400_000)
    monkeypatch.setattr(cli, "run_scenario", lambda cfg: pytest.fail("the run started"))
    edges = tmp_path / "k4.edges"
    edges.write_text(K4_EDGES)
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps({
        "topology": {"file": str(edges), "validators": [0]},
        "scenario": {"duration_ms": 1_000_000, "warmup_ms": 0},
    }))
    code, out, err = run_cli(capsys, "simulate", "--config", str(config_path),
                             "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: 4 nodes, 6 edges and 1000000 ms need at least")
    assert "physical memory" in err


def test_run_within_memory_generates(tmp_path, small_config, capsys, monkeypatch):
    # Exactly the small config's floor, 20 x 2 x (320 + 10 x 3 x 8) bytes.
    monkeypatch.setattr(config, "_physical_memory", lambda: 22400)
    code, _, _ = run_cli(capsys, "simulate", "--config", str(small_config),
                         "--out", str(tmp_path))
    assert code == 0


# --- pinned output bytes -------------------------------------------------------------

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference_testbed.json"
# Disconnected, with integer, fractional and default latencies.
PINNED_EDGES = "0 1 5\n1 2 7.5\n2 3\n3 0 9\n2 4 1\n5 6 3\n6 7 2\n"

# sha256 of CLI outputs: `compare` on the reference testbed cut to 32
# simulated seconds (seed 1), `simulate` on the reference testbed as shipped,
# `topo-stats` on PINNED_EDGES, and `fit --gain 200 0.28905` on the shipped
# data. Any change is a change of the JSON or CSV bytes the CLI writes.
PINNED_CLI_SHA256 = {
    "simulate metrics.csv": "703797b6cc3c88993c14697911e008cfe8535191472cdb31523b48aaf1a737e8",
    "simulate summary.json": "91ac66537a02b3e678fbd50e328e0f5c8562e23899f57bc7c1e959b77cc41948",
    "compare.json": "8ccbef8532d728c96849e7b9895d8c11e709fafc6488f8858e01c4a0c0dee256",
    "cumulative.csv": "544c7fd558602fd6af82e3e35db0be6fafb530a62d5e557089e54f868d09c018",
    "topo-stats": "9db5283a726a8bf95f5d7db071b49114ba2c22cf57b61225e786799886da158d",
    "fit --gain": "d674e3f01a04e3f9b9ddb52c17ad77c01d9e708ffde51f6ddf731c3aa5d18cda",
    # The paper's headline run: `compare` on the reference testbed as
    # shipped (seed 1, all 120 s and five bursts).
    "headline compare.json": "550317deeb5ac900f877010492eb81aa2f5e29048f4a12986911cb1b8aed3f41",
    "headline cumulative.csv": "2fb1c25ff25d3a6d41d51e97ccfc4e53d447c624883f34bcc8d1cd6125e0d418",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_compare_artifact_bytes_pinned(tmp_path, capsys):
    # Longer files in the way must lose their tails.
    for name in ("compare.json", "cumulative.csv"):
        (tmp_path / name).write_text("stale\n" * 100_000)
    code, _, _ = run_cli(capsys, "compare", "--config", str(REFERENCE_CONFIG), "--seed", "1",
                         "--set", "scenario.duration_ms=32000", "--out", str(tmp_path))
    assert code == 0
    for name in ("compare.json", "cumulative.csv"):
        assert _sha256((tmp_path / name).read_bytes()) == PINNED_CLI_SHA256[name], name


def test_headline_compare_artifact_bytes_pinned(tmp_path, capsys):
    assert len(json.loads(REFERENCE_CONFIG.read_text())["scenario"]["tx_plan"]) == 5
    code, out, _ = run_cli(capsys, "compare", "--config", str(REFERENCE_CONFIG),
                           "--out", str(tmp_path))
    assert code == 0
    assert "saved 27.025%" in out
    for name in ("compare.json", "cumulative.csv"):
        digest = _sha256((tmp_path / name).read_bytes())
        assert digest == PINNED_CLI_SHA256[f"headline {name}"], name


def test_simulate_artifact_bytes_pinned(tmp_path, capsys):
    # A longer file in the way must lose its tail.
    (tmp_path / "metrics.csv").write_text("stale\n" * 100_000)
    code, _, _ = run_cli(capsys, "simulate", "--config", str(REFERENCE_CONFIG),
                         "--out", str(tmp_path))
    assert code == 0
    for name in ("metrics.csv", "summary.json"):
        digest = _sha256((tmp_path / name).read_bytes())
        assert digest == PINNED_CLI_SHA256[f"simulate {name}"], name


@pytest.mark.parametrize("command,options", [
    ("simulate", ()),
    ("compare", ("--seed", "1", "--set", "scenario.duration_ms=32000")),
])
def test_rerun_into_the_same_out_rewrites_the_same_bytes(command, options, tmp_path, capsys):
    first = _artifacts(capsys, tmp_path, command, REFERENCE_CONFIG, *options)
    assert _artifacts(capsys, tmp_path, command, REFERENCE_CONFIG, *options) == first


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


def test_fit_gain_savings_from_compare_json(tmp_path, cpu_csv_path, msgs_csv_path, capsys):
    code, _, _ = run_cli(capsys, "compare", "--config", str(REFERENCE_CONFIG), "--seed", "1",
                         "--set", "scenario.duration_ms=32000", "--out", str(tmp_path))
    assert code == 0
    compare_json = tmp_path / "compare.json"
    fraction = json.loads(compare_json.read_text())["savings"]["saved_percent"] / 100
    outs = []
    for gain in (["200", "--savings-from", str(compare_json)], ["200", repr(fraction)]):
        with pytest.warns(ExtrapolationWarning):
            code, out, _ = run_cli(capsys, "fit", str(msgs_csv_path), "--gain", *gain,
                                   "--cpu-csv", str(cpu_csv_path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["gain"]["freed_slots"] == 95


@pytest.mark.parametrize("gain,source,message", [
    (["200"], "missing.json", "No such file"),
    (["200"], "malformed.json", "not JSON"),
    (["200"], "summary.json", "not the compare.json of a compare"),
    (["200"], "list.json", "not the compare.json of a compare"),
    (["200"], "nan.json", "not the compare.json of a compare"),
    (["200", "0.3"], "compare.json", "alone with --savings-from"),
    ([], "compare.json", "--savings-from needs --gain"),
])
def test_fit_savings_from_refused_exit_2(gain, source, message, tmp_path, cpu_csv_path,
                                         msgs_csv_path, capsys):
    compare = {"flood": {}, "squelch": {}, "savings": {"saved_percent": 30.0}}
    (tmp_path / "compare.json").write_text(json.dumps(compare))
    (tmp_path / "malformed.json").write_text('{"savings": ')
    (tmp_path / "summary.json").write_text(json.dumps({"summary": {}, "policy": "flood"}))
    (tmp_path / "list.json").write_text("[]")
    compare["savings"]["saved_percent"] = float("nan")
    (tmp_path / "nan.json").write_text(json.dumps(compare))
    gain = ["--gain", *gain] if gain else []
    code, out, err = run_cli(capsys, "fit", str(msgs_csv_path), *gain, "--savings-from",
                             str(tmp_path / source), "--cpu-csv", str(cpu_csv_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


# --- one parser per process ----------------------------------------------------------

def _artifacts(capsys, out_dir, command, config_path, *options):
    code, _, _ = run_cli(capsys, command, "--config", str(config_path), *options,
                         "--out", str(out_dir))
    assert code == 0
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


@pytest.fixture
def window_config(tmp_path):
    """The reference testbed cut to 32 s in the file itself, so a command
    needs no `--set` to run the pinned window."""
    doc = json.loads(REFERENCE_CONFIG.read_text())
    doc["scenario"]["duration_ms"] = 32000
    path = tmp_path / "window.json"
    path.write_text(json.dumps(doc))
    return path


def test_shared_parser_carries_nothing_between_commands(tmp_path, capsys):
    # Each `--seed` or `--set` is followed by a command without it.
    commands = [
        ("compare", "--seed", "3", "--set", "scenario.duration_ms=32000"),
        ("compare",),
        ("simulate", "--seed", "3"),
        ("simulate",),
    ]
    parser = cli._build_parser()
    shared = [_artifacts(capsys, tmp_path / f"shared{i}", command, REFERENCE_CONFIG, *options)
              for i, (command, *options) in enumerate(commands)]
    assert cli._build_parser() is parser
    fresh = []
    for i, (command, *options) in enumerate(commands):
        cli._build_parser.cache_clear()
        fresh.append(_artifacts(capsys, tmp_path / f"fresh{i}", command, REFERENCE_CONFIG,
                                *options))
    assert shared == fresh
    assert shared[2]["summary.json"] != shared[3]["summary.json"]


@pytest.mark.parametrize("argv,exit_code", [
    (["--version"], 0),
    (["compare"], 2),
    (["frobnicate"], 2),
    (["compare", "--config", "{window}", "--set", "scenario.seed=3", "--seed", "x"], 2),
    # Parsed, then refused by the handler after it has taken the seed.
    (["compare", "--config", "{bad}", "--seed", "3"], 2),
])
def test_exit_between_commands_leaves_the_next_unchanged(argv, exit_code, tmp_path,
                                                          window_config, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(window_config.read_text().replace('"warmup_ms": 10000', '"warmup_ms": 40000'))
    argv = [arg.format(window=window_config, bad=bad) for arg in argv]
    before = _artifacts(capsys, tmp_path / "before", "compare", window_config)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == exit_code
    capsys.readouterr()
    after = _artifacts(capsys, tmp_path / "after", "compare", window_config)
    assert before == after
    assert _sha256(after["compare.json"]) == PINNED_CLI_SHA256["compare.json"]


def test_python_dash_m_squelchsim_version():
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-m", "squelchsim", "--version"],
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"squelchsim {squelchsim.__version__}\n"
