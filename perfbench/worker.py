"""Run a benchmark plan repeatedly in this process and check every pass.

Usage: python3 perfbench/worker.py PLAN_JSON RESULT_JSON OUT_DIR
           [--traced] [--seconds S] [--min-reps N]

One pass over the plan's commands is a repetition (rep). The worker runs
reps until the next one would end after S seconds, but at least N times.
Each command goes through `squelchsim.cli.main` in-process, with the spans
of `spans.py` around the calls into each layer. After a command returns,
and outside its timing, its outputs are checked against oracles computed
from the benchmark's own inputs:

- flood arm: application deliveries equal messages x (2|E| - (N-1));
- squelch arm: first receipts (application `in` minus duplicates) equal
  messages x (N-1), counted over the seconds before the first disconnect;
- every arm: network-wide `in` equals `out` per (second, kind);
- per-command expectations of the plan (graph size, savings band,
  `topo-stats` output).

While it runs, the worker samples the host's speed (hostspeed.py); each
rep gets the scale REFERENCE_S / (mean sample time during the rep), and
every time it reports is taken less the time spent in samples. A timed
worker also runs set-up probes after each pass: every command again,
stopped by an exception where its set-up ends, for more set-up samples
per rep. Probes write no artifacts and are not checked.

The result file holds host times with each rep's scale, deterministic
counts, artifact digests and the failures found; a failed check never
stops the worker.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

from hostspeed import SpeedSampler
from spans import SETUP_ENDS, Recorder, SetupDone

ROOT = Path(__file__).resolve().parent.parent
# Set-up probes per timed rep: at most this many passes over the plan's
# commands, and no new pass once this many seconds are spent.
MAX_SETUP_PROBES = 10
SETUP_PROBE_BUDGET_S = 0.15
APPLICATION_KINDS = {"proposal", "validation", "transaction"}
ARTIFACTS = ("metrics.csv", "summary.json", "compare.json", "cumulative.csv")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("out_dir")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-reps", type=int, default=1)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import squelchsim.cli
    import squelchsim.config
    import squelchsim.engine

    if not Path(squelchsim.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported squelchsim from {squelchsim.__file__}, "
              f"not from this checkout", file=sys.stderr)
        return 2

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    recorder = Recorder()
    recorder.install(
        {m.__name__: m for m in (squelchsim.cli, squelchsim.config, squelchsim.engine)},
        traced=args.traced,
    )

    def run_command(index: int, argv: list[str]) -> tuple[object, str]:
        stdout = io.StringIO()
        root = recorder.begin_command(index)
        try:
            with contextlib.redirect_stdout(stdout):
                code = squelchsim.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a usage error this way
            code = exc.code
        except SetupDone:
            code = None
        finally:
            recorder.end_command(root)
        return code, stdout.getvalue()

    out_root = Path(args.out_dir)
    spans_path = Path(args.result).with_suffix(".spans.jsonl")
    sampler = SpeedSampler()
    reps = []
    start = time.perf_counter()
    sampler.start()
    try:
        while True:
            reps.append(_rep(plan, run_command, recorder, sampler, out_root, args.traced))
            if args.traced:
                recorder.write(spans_path)  # the last rep's spans are kept
            recorder.reset()
            elapsed = time.perf_counter() - start
            if len(reps) >= args.min_reps and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                break
    finally:
        sampler.stop()

    result = {
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "absent": recorder.absent,
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _rep(plan: dict, run_command, recorder: Recorder, sampler: SpeedSampler,
         out_root: Path, traced: bool) -> dict:
    """One pass over the plan's commands, then (timed only) set-up probes."""
    begin = time.perf_counter()
    commands = []
    for index, command in enumerate(plan["commands"]):
        code, stdout = run_command(index, _argv(command, out_root / f"{index:03d}"))
        commands.append(_measure(command, code, stdout, recorder, sampler, index,
                                 out_root / f"{index:03d}"))
        recorder.release_results()
    setup_passes = [sum(c["setup_s"] for c in commands)]

    if not traced:
        # Set-up probes: run every command again, stopped where its set-up
        # ends, to get more set-up samples per rep.
        recorder.probing = True
        probe_start = time.perf_counter()
        while len(setup_passes) <= MAX_SETUP_PROBES and (
            time.perf_counter() - probe_start < SETUP_PROBE_BUDGET_S
        ):
            total = 0.0
            for index, command in enumerate(plan["commands"]):
                probe = len(plan["commands"]) * len(setup_passes) + index
                run_command(probe, _argv(command, out_root / f"{index:03d}"))
                total += _setup_seconds(recorder.command_spans(probe), sampler)
            setup_passes.append(total)
        recorder.probing = False

    rep = {"commands": commands, "setup_passes": setup_passes,
           "scale": sampler.scale(begin, time.perf_counter())}
    if traced:
        rep["layers"] = _layers(recorder, commands)
    return rep


def _argv(command: dict, out_dir: Path) -> list[str]:
    if command["verb"] == "topo-stats":
        return list(command["argv"])
    return command["argv"] + ["--out", str(out_dir)]


def _span_seconds(begin: float, end: float, sampler: SpeedSampler) -> float:
    """Host seconds in [begin, end), less the time spent sampling speed."""
    return end - begin - sampler.covered(begin, end)


def _setup_seconds(spans: list[tuple[int, list]], sampler: SpeedSampler) -> float:
    """Time from entering the command to its first engine call; topo-stats
    has no engine call, so its set-up (edge-list read and parse) ends at
    graph_stats. A command that reaches neither counts whole."""
    root = spans[0][1]
    marks = [s for _, s in spans if s[0] in SETUP_ENDS]
    return _span_seconds(root[1], marks[0][1] if marks else root[2], sampler)


def _measure(command: dict, code, stdout: str, recorder: Recorder, sampler: SpeedSampler,
             index: int, out_dir: Path) -> dict:
    spans = recorder.command_spans(index)
    root = spans[0][1]
    arms = []
    for idx, span in spans:
        if span[0] == "engine.run_scenario" and span[5] is not None:
            cfg, log = span[5]
            arm = _arm_facts(cfg, log, _span_seconds(span[1], span[2], sampler))
            arm["hot_s"] = recorder.hot_seconds(idx)
            arms.append(arm)
    digests = {}
    for name in ARTIFACTS:
        path = out_dir / name
        if path.is_file():
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    rows = 0
    if (out_dir / "metrics.csv").is_file():
        with (out_dir / "metrics.csv").open(encoding="utf-8") as csv:
            rows = sum(1 for line in csv if not line.startswith("#")) - 1
    failures = _check(command, code, stdout, arms, out_dir)
    for arm in arms:
        del arm["first_by_second"]
    return {
        "verb": command["verb"],
        "wall_s": _span_seconds(root[1], root[2], sampler),
        "setup_s": _setup_seconds(spans, sampler),
        "arms": arms,
        "digests": digests,
        "rows": rows,
        "failures": failures,
    }


def _arm_facts(cfg, log, seconds: float) -> dict:
    balance: dict = {}
    first_by_second: dict[int, int] = {}
    deliveries = app_in = 0
    for (_node, second, kind, direction), n in log.counts.items():
        key = (second, kind)
        if direction == "in":
            deliveries += n
            balance[key] = balance.get(key, 0) + n
            if kind.value in APPLICATION_KINDS:
                app_in += n
                first_by_second[second] = first_by_second.get(second, 0) + n
        else:
            balance[key] = balance.get(key, 0) - n
    duplicates = 0
    for (_node, second, _kind), n in log.duplicates.items():
        duplicates += n
        first_by_second[second] = first_by_second.get(second, 0) - n
    graph = cfg.topology
    return {
        "policy": cfg.relay_policy.value,
        "seconds": seconds,
        "deliveries": deliveries,
        "app_in": app_in,
        "duplicates": duplicates,
        "unbalanced": sorted(f"{s}/{k.value}" for (s, k), d in balance.items() if d),
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "validators": len(graph.validator_set),
        "first_by_second": first_by_second,
    }


def emission_times(scenario: dict, validators: int) -> list[float]:
    """Simulated times (ms) of every application message the inputs emit,
    assuming every origin stays live."""
    duration = scenario["duration_ms"]
    per_round = validators * (scenario["proposals_per_round"] + 1)
    times = [float(t) for t in range(0, duration, scenario["ledger_round_ms"])
             for _ in range(per_round)]
    for burst in scenario.get("tx_plan", []):
        rate = burst.get("rate_per_s", 0)
        gap = 1000.0 / rate if rate > 0 else 0.0
        times += [t for t in (burst["start_ms"] + i * gap for i in range(burst["count"]))
                  if t < duration]
    return times


def _check(command: dict, code, stdout: str, arms: list[dict], out_dir: Path) -> list[str]:
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    expect = command["expect"]
    if command["verb"] == "topo-stats":
        try:
            stats = json.loads(stdout)
        except json.JSONDecodeError:
            return failures + ["topo-stats printed no JSON"]
        n, m = expect["nodes"], expect["edges"]
        if stats.get("giant_component_size") != n or stats.get("connected") is not True:
            failures.append(f"topo-stats: expected a connected graph of {n} nodes, got {stats}")
        if not math.isclose(stats.get("avg_degree", 0.0), 2 * m / n, rel_tol=1e-12):
            failures.append(f"topo-stats: avg_degree {stats.get('avg_degree')} != {2 * m / n}")
        return failures

    scenario = command["scenario"]
    wanted = (["flood", "squelch"] if command["verb"] == "compare"
              else [scenario["relay_policy"]])
    if [arm["policy"] for arm in arms] != wanted:
        failures.append(f"engine ran arms {[a['policy'] for a in arms]}, expected {wanted}")
    disconnects = sorted(d["at_ms"] for d in scenario.get("disconnects", []))
    cutoff_ms = disconnects[0] if disconnects else math.inf
    for arm in arms:
        label = arm["policy"]
        for key in ("nodes", "edges", "validators"):
            if key in expect and arm[key] != expect[key]:
                failures.append(f"{label}: {key} {arm[key]} != {expect[key]}")
        if arm["unbalanced"]:
            failures.append(f"{label}: in != out for (second/kind) {arm['unbalanced'][:5]}")
        n, m = arm["nodes"], arm["edges"]
        times = emission_times(scenario, arm["validators"])
        if label == "flood":
            want = len(times) * (2 * m - (n - 1))
            if arm["app_in"] != want:
                failures.append(f"flood: {arm['app_in']} application deliveries, "
                                f"oracle {want}")
        else:
            cutoff_s = cutoff_ms // 1000 if disconnects else math.inf
            got = sum(c for s, c in arm["first_by_second"].items() if s < cutoff_s)
            want = sum(1 for t in times if t < cutoff_ms) * (n - 1)
            if got != want:
                failures.append(f"squelch: {got} first receipts before the first "
                                f"disconnect, oracle {want}")
    if "saved_percent" in expect:
        low, high = expect["saved_percent"]
        try:
            report = json.loads((out_dir / "compare.json").read_text(encoding="utf-8"))
            saved = report["savings"]["saved_percent"]
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"compare.json unreadable: {exc}")
        else:
            if not low <= saved <= high:
                failures.append(f"saved_percent {saved:.3f} outside [{low}, {high}]")
    return failures


def _layers(recorder: Recorder, commands: list[dict]) -> dict:
    """Per-layer host seconds and counts of this rep."""
    self_s = recorder.self_times()
    total_s: dict[str, float] = {}
    for name, start, end, *_ in recorder.spans:
        total_s[name] = total_s.get(name, 0.0) + end - start
    hot: dict[str, list] = {}
    for (name, _), rec in recorder.hot.items():
        agg = hot.setdefault(name, [0, 0.0, 0, 0])
        for i, value in enumerate(rec):
            agg[i] += value
    engine = {"flood": 0.0, "squelch": 0.0}
    for arm in (arm for c in commands for arm in c["arms"]):
        engine[arm["policy"]] += arm["seconds"] - arm["hot_s"]

    def calls(name: str, column: int = 0):
        return hot.get(name, [0, 0.0, 0, 0])[column]

    return {
        "engine.flood.s": engine["flood"],
        "engine.squelch.s": engine["squelch"],
        "squelch.s": sum(rec[1] for rec in hot.values()),
        "squelch.on_validator_message.calls": calls("squelch.on_validator_message"),
        "squelch.squelches_sent": calls("squelch.on_validator_message", 2),
        "squelch.unsquelches_sent": calls("squelch.on_uplink_lost", 3),
        "squelch.expiries": calls("squelch.on_squelch_expired"),
        "squelch.uplink_lost": calls("squelch.on_uplink_lost"),
        "config.s": sum(v for k, v in self_s.items() if k.startswith("config.")),
        "topology.build_s": sum(
            self_s.get(k, 0.0) for k in
            ("topology.build_topology", "topology.generate_topology", "topology.load_topology")),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "topology.graph_stats_s": total_s.get("topology.graph_stats", 0.0),
        "metrics.summarize_s": total_s.get("metrics.summarize", 0.0),
        "metrics.export_csv_s": total_s.get("metrics.export_csv", 0.0),
    }


if __name__ == "__main__":
    raise SystemExit(main())
