"""Layered, correctness-gated benchmark of the squelchsim simulator.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run generates the workload's inputs from the seed and starts one fresh
worker process, which repeats the workload's CLI commands for about S
seconds; one pass over the commands is a repetition (rep). Every command's
host time is scaled by the host speed read around it (hostspeed.py), and
the run reports medians over reps (see _end_to_end). With `--trace 1` a
timed worker runs for S/2 seconds, then a traced worker with spans around
each layer for S/2; the per-layer metrics come from the traced worker, and
the tracing overhead is the difference of their rep times. Every command's
outputs are checked (see worker.py), and artifacts must be byte-identical
across reps and between the timed and traced workers.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--smoke` runs every
workload at toy size and asserts that every metric of BENCHMARK.json is
reported with its unit and that every check passes; it has no timing
thresholds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, build_plan

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"

# A worker measures for at most this long, so a run always exits within
# 180 s even when the host is slow.
HARD_LIMIT_S = 120.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "deliveries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "op_p50_s": "s",
    "op_p90_s": "s",
}
PER_LAYER_UNITS = {
    "engine.flood.s": "s",
    "engine.flood.deliveries_per_s": "1/s",
    "engine.squelch.s": "s",
    "engine.squelch.deliveries_per_s": "1/s",
    "squelch.s": "s",
    "squelch.on_validator_message.calls": "count",
    "engine.flood.deliveries": "count",
    "engine.squelch.deliveries": "count",
    "engine.duplicates": "count",
    "engine.useful_ratio": "ratio",
    "squelch.squelches_sent": "count",
    "squelch.unsquelches_sent": "count",
    "squelch.expiries": "count",
    "squelch.uplink_lost": "count",
    "config.s": "s",
    "topology.build_s": "s",
    "cli.self_s": "s",
    "topology.graph_stats_s": "s",
    "metrics.summarize_s": "s",
    "metrics.export_csv_s": "s",
    "metrics.rows": "count",
    "trace.overhead_s": "s",
}
# Per-layer metrics that read 0 because a workload never enters the layer.
_NOT_EXERCISED = (
    ("engine.flood.", "flood", "no flood arm in this workload"),
    ("engine.squelch.", "squelch", "no squelch arm in this workload"),
    ("squelch.", "squelch", "no squelch arm in this workload"),
    ("topology.graph_stats_s", "topo-stats", "no topo-stats command in this workload"),
    ("metrics.export_csv_s", "simulate", "compare writes no metrics.csv, only simulate does"),
    ("metrics.rows", "simulate", "compare writes no metrics.csv, only simulate does"),
)


class BenchError(RuntimeError):
    """The benchmark could not run the program; no result is printed."""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size and check the report")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "squelchsim" / "__init__.py").is_file():
        print(f"error: no squelchsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    for name, reason in sorted(report["absent"].items()):
        print(f"absent {name}: {reason}")
    for failure in report["failures"][:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


def environment() -> dict:
    """Where and on what a run happened, taken at its start."""
    return {
        "revision": _git_revision(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _git_revision() -> str:
    """HEAD's commit from the files under .git; "unknown" outside a git
    checkout. Reads no directory above the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    env = environment()
    start = time.monotonic()
    work = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        plan = build_plan(workload, seed, work / "inputs", size)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        seconds = min(seconds, HARD_LIMIT_S)
        if trace:
            timed = _work(plan_path, work, "timed", seconds / 2, 2, start)
            traced = _work(plan_path, work, "traced", seconds / 2, 2, start)
        else:
            timed = _work(plan_path, work, "timed", seconds, 3, start)
            traced = None
        traced_reps = traced["reps"] if traced else []
        failures, failed = _failures(timed["reps"], traced_reps)
        attempted = sum(len(rep["commands"]) for rep in timed["reps"] + traced_reps)
        report = {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "environment": env,
            "reps": {"timed": len(timed["reps"]), "traced": len(traced_reps)},
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "failures": failures,
            "end_to_end": _end_to_end(timed),
            "per_layer": _per_layer(timed, traced) if trace else {},
            "absent": _absent(plan, traced) if trace else {},
            "raw": {"timed": [_rep_summary(rep) for rep in timed["reps"]],
                    "traced": [_rep_summary(rep) for rep in traced_reps]},
        }
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        name = f"{workload}-s{seed}-t{int(trace)}"
        (results / f"{name}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
        spans = work / "traced.spans.jsonl"
        if spans.is_file():
            shutil.copyfile(spans, results / f"{name}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report


def _work(plan_path: Path, work: Path, kind: str, seconds: float, min_reps: int,
          start: float) -> dict:
    """Run one worker process of `kind` for about `seconds`."""
    result = work / f"{kind}.json"
    argv = [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result),
            str(work / "out" / kind), "--seconds", repr(seconds), "--min-reps", str(min_reps)]
    if kind == "traced":
        argv.append("--traced")
    budget = 170.0 - (time.monotonic() - start)
    try:
        proc = subprocess.run(argv, timeout=max(budget, 1.0), check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{kind} worker did not finish within the run's time limit") from None
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"{kind} worker exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def _failures(timed: list[dict], traced: list[dict]) -> tuple[list[str], int]:
    """Failure messages, and the number of commands that failed: a check
    failed, or artifacts or counts did not repeat exactly across every
    rep, timed or traced."""
    labelled = [(kind, i, rep) for kind, reps in (("timed", timed), ("traced", traced))
                for i, rep in enumerate(reps)]
    reference = [_deterministic(c) for c in timed[0]["commands"]]
    failed: set[tuple] = set()
    failures: list[str] = []
    for kind, i, rep in labelled:
        for j, command in enumerate(rep["commands"]):
            problems = list(command["failures"])
            if _deterministic(command) != reference[j]:
                problems.append("artifacts or counts differ from timed rep 0")
            if problems:
                failed.add((kind, i, j))
                failures += [f"{kind} rep {i} command {j} ({command['verb']}): {p}"
                             for p in problems]
    for i, rep in enumerate(traced[1:], start=1):
        if any(traced[0]["layers"][k] != v for k, v in rep["layers"].items()
               if PER_LAYER_UNITS[k] == "count"):
            failed.add(("traced", i, 0))
            failures.append(f"traced rep {i}: squelch counters differ from traced rep 0")
    return failures, len(failed)


def _deterministic(command: dict) -> list:
    return [(arm["policy"], arm["deliveries"], arm["app_in"], arm["duplicates"])
            for arm in command["arms"]] + [command["rows"], sorted(command["digests"].items())]


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _rate(rep: dict, policy: str | None = None) -> float:
    """Deliveries per scaled second inside run_scenario."""
    arms = [a for c in rep["commands"] for a in c["arms"]
            if policy is None or a["policy"] == policy]
    seconds = sum(a["seconds"] for a in arms) * rep["scale"]
    return sum(a["deliveries"] for a in arms) / seconds if seconds else 0.0


def _rep_wall(rep: dict) -> float:
    return sum(c["wall_s"] for c in rep["commands"]) * rep["scale"]


def _end_to_end(timed: dict) -> dict:
    """Every time is host time less speed sampling, scaled by the host
    speed sampled during its rep (hostspeed.py). wall_s and
    deliveries_per_s are medians over reps; op_p50_s and op_p90_s are
    percentiles over the commands of the plan, each command's time its
    median over reps; setup_s is the median over every set-up pass of the
    run (the real commands' and the probes'); peak_rss_mb is the worker's
    ru_maxrss."""
    reps = timed["reps"]
    ops = [statistics.median(rep["commands"][j]["wall_s"] * rep["scale"] for rep in reps)
           for j in range(len(reps[0]["commands"]))]
    values = {
        "wall_s": statistics.median(_rep_wall(rep) for rep in reps),
        "setup_s": statistics.median(p * rep["scale"] for rep in reps for p in rep["setup_passes"]),
        "deliveries_per_s": statistics.median(_rate(rep) for rep in reps),
        "peak_rss_mb": timed["peak_rss_mb"],
        "op_p50_s": _quantile(ops, 50),
        "op_p90_s": _quantile(ops, 90),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def _per_layer(timed: dict, traced: dict) -> dict:
    """Medians over traced reps of scaled times and rates; counts are exact
    (checked to repeat in run())."""
    reps = traced["reps"]
    first = reps[0]["layers"]
    values = {}
    for name in first:
        if PER_LAYER_UNITS[name] == "count":
            values[name] = first[name]
        else:
            values[name] = statistics.median(rep["layers"][name] * rep["scale"] for rep in reps)
    for policy in ("flood", "squelch"):
        values[f"engine.{policy}.deliveries_per_s"] = statistics.median(
            _rate(rep, policy) for rep in reps)
    arms = [a for c in reps[0]["commands"] for a in c["arms"]]
    for policy in ("flood", "squelch"):
        values[f"engine.{policy}.deliveries"] = sum(
            a["deliveries"] for a in arms if a["policy"] == policy)
    duplicates = sum(a["duplicates"] for a in arms)
    app_in = sum(a["app_in"] for a in arms)
    values["engine.duplicates"] = duplicates
    values["engine.useful_ratio"] = (app_in - duplicates) / app_in if app_in else 0.0
    values["metrics.rows"] = sum(c["rows"] for c in reps[0]["commands"])
    values["trace.overhead_s"] = (statistics.median(_rep_wall(rep) for rep in reps)
                                  - _end_to_end(timed)["wall_s"]["value"])
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def _absent(plan: dict, traced: dict) -> dict:
    """Per-layer metrics that read 0 because they were not measured, with
    the reason: the workload never enters the layer, or the program no
    longer has a name the traced run wraps."""
    present = {c["verb"] for c in plan["commands"]}
    present |= {a["policy"] for c in traced["reps"][0]["commands"] for a in c["arms"]}
    absent = {}
    for name in PER_LAYER_UNITS:
        for prefix, needed, reason in _NOT_EXERCISED:
            if name.startswith(prefix) and needed not in present:
                absent[name] = reason
                break
    absent.update(traced["absent"])
    return absent


def _rep_summary(rep: dict) -> dict:
    """A rep's host times, before scaling, and its scale."""
    return {
        "scale": rep["scale"],
        "wall_s": [c["wall_s"] for c in rep["commands"]],
        "setup_s": [c["setup_s"] for c in rep["commands"]],
        "setup_passes": rep["setup_passes"],
        "engine_s": [a["seconds"] for c in rep["commands"] for a in c["arms"]],
        "deliveries": [a["deliveries"] for c in rep["commands"] for a in c["arms"]],
        "layers": rep.get("layers", {}),
    }


def smoke() -> int:
    """Every workload at toy size, timed and traced: every metric of
    BENCHMARK.json present with its unit, every check passing."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        report = run(workload, seed=1, seconds=0.0, trace=True, size="toy")
        for group, key in (("end_to_end", "end_to_end"), ("per_layer", "per_layer")):
            for metric in spec[group]:
                got = report[key].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload}: {metric['name']} missing or not in "
                                    f"{metric['unit']}: {got}")
        if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
            problems.append("BENCHMARK.json names other workloads than workloads.py")
        problems += [f"{workload}: {f}" for f in report["failures"]]
        print(f"smoke {workload}: {report['attempted']} commands, {report['failed']} failed")
    for problem in problems:
        print(f"SMOKE FAILED {problem}")
    print("smoke passed" if not problems else f"smoke failed: {len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
