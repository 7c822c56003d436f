"""Summarize the benchmark results of one revision as a trajectory point.

Usage: python3 perfbench/trajectory.py LABEL >> perfbench/trajectory.jsonl

Reads every result record under .perfbench-work/results/ (one per run of
run.py) and prints one JSON line: for each workload and end-to-end metric
the median and quartiles over the timed runs (one run per seed), the
median of each per-layer metric over the traced runs, the fail fraction,
and where the runs happened (revision, Python version, cores, load
averages at the start of each run).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".perfbench-work" / "results"


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    records = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(RESULTS.glob("*.json"))]
    if not records:
        print(f"error: no result records under {RESULTS}", file=sys.stderr)
        return 1
    workloads: dict[str, dict] = {}
    for record in records:
        entry = workloads.setdefault(record["workload"], {
            "seeds": [], "attempted": 0, "failed": 0, "timed": {}, "traced": {}})
        entry["seeds"].append(record["seed"])
        entry["attempted"] += record["attempted"]
        entry["failed"] += record["failed"]
        group = entry["traced"] if record["trace"] else entry["timed"]
        metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
        for name, metric in metrics.items():
            group.setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(
                metric["value"])
    for entry in workloads.values():
        entry["fail_frac"] = entry["failed"] / entry["attempted"]
        entry["seeds"] = sorted(set(entry["seeds"]))
        for group in ("timed", "traced"):
            for metric in entry[group].values():
                metric.update(_spread(metric.pop("values")))
    environments = [r["environment"] for r in records]
    print(json.dumps({
        "label": argv[0],
        "revisions": sorted({e["revision"] for e in environments}),
        "python": sorted({e["python"] for e in environments}),
        "nproc": sorted({e["nproc"] for e in environments}),
        "loadavg_1min": _spread([e["loadavg"][0] for e in environments]),
        "first_run": min(e["started"] for e in environments),
        "last_run": max(e["started"] for e in environments),
        "workloads": workloads,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
