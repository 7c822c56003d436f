"""Seeded inputs for the benchmark's named workloads.

Each workload function writes its input files (config documents, and for
`mainnet_flood` an edge list) into a work directory and returns a plan: the
CLI commands of one rep (one pass) plus what the checks need to know about the
inputs. The same seed gives byte-identical inputs. Nothing here imports
squelchsim, so inputs never depend on the code under test.

Timing designs that the oracles rely on: every workload emits its last
message long enough before `duration_ms` for its flood to finish, and
`squelch_churn` emits on whole seconds with disconnects on whole seconds, so
per-second first-receipt counts split cleanly at the first disconnect.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# A copy of configs/reference_testbed.json, kept here so that a later edit
# of the shipped config does not silently change the benchmark.
REFERENCE_CONFIG = {
    "topology": {
        "node_count": 15,
        "target_avg_degree": 8.0,
        "validator_fraction": 0.33,
        "latency_range_ms": [5, 50],
    },
    "scenario": {
        "duration_ms": 120000,
        "warmup_ms": 10000,
        "relay_policy": "flood",
        "ledger_round_ms": 500,
        "proposals_per_round": 3,
        "seed": 1,
        "tx_plan": [
            {"start_ms": start, "trackers": "all", "count": 1000, "rate_per_s": 100}
            for start in (30000, 42000, 54000, 66000, 78000)
        ],
    },
    "protocol": {"count_threshold": 10, "max_selected": 3},
    "metrics": {"include_control_in_total": True},
    "output": {"dir": "out/reference_testbed"},
}

# MainNet yardstick from the paper.
MAINNET_NODES = 892
MAINNET_EDGES = 9197
MAINNET_VALIDATORS = 152

# Sizes per workload: "full" for timed runs, "toy" for the smoke mode.
# reference_compression divides every time of the reference scenario
# (duration, warm-up, burst starts) and its burst sizes, so that a command
# lasts about a second and a run holds many reps (README.md, "Workloads").
SIZES = {
    "full": {
        "reference_compression": 6,
        "mainnet_active_validators": 2,
        "churn_nodes": 60,
        "churn_duration_ms": 20000,
        "sweep_commands": 100,
    },
    "toy": {
        "reference_compression": 24,
        "mainnet_active_validators": 1,
        "churn_nodes": 20,
        "churn_duration_ms": 8000,
        "sweep_commands": 3,
    },
}


def build_plan(workload: str, seed: int, work_dir: Path, size: str = "full") -> dict:
    """Write the workload's inputs under work_dir and return its plan."""
    work_dir.mkdir(parents=True, exist_ok=True)
    commands = _PLANNERS[workload](seed, work_dir, SIZES[size])
    return {"workload": workload, "seed": seed, "size": size, "commands": commands}


def _write_config(work_dir: Path, name: str, doc: dict) -> str:
    path = work_dir / name
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _run_command(verb: str, config_path: str, doc: dict, **expect) -> dict:
    """A simulate or compare command plus its generator-side expectations."""
    topo = doc["topology"]
    if "file" in topo:
        expect.setdefault("validators", len(topo["validators"]))
    else:
        n = topo["node_count"]
        expect.setdefault("nodes", n)
        expect.setdefault("edges", round(topo["target_avg_degree"] * n / 2))
    return {
        "verb": verb,
        "argv": [verb, "--config", config_path],
        "scenario": doc["scenario"],
        "expect": expect,
    }


def _plan_reference_compare(seed: int, work_dir: Path, sizes: dict) -> list[dict]:
    doc = json.loads(json.dumps(REFERENCE_CONFIG))
    scenario = doc["scenario"]
    k = sizes["reference_compression"]
    scenario["seed"] = seed
    scenario["duration_ms"] //= k
    scenario["warmup_ms"] //= k
    for burst in scenario["tx_plan"]:
        burst["start_ms"] //= k
        burst["count"] //= k
    path = _write_config(work_dir, "reference_compare.json", doc)
    return [_run_command("compare", path, doc, saved_percent=[15.0, 45.0])]


def mainnet_edge_list(seed: int) -> str:
    """A connected 892-node, 9197-edge graph with latency uniform over
    5-100 ms: a random recursive tree plus uniformly random extra edges."""
    rng = random.Random(seed)
    order = list(range(MAINNET_NODES))
    rng.shuffle(order)
    edges: set[tuple[int, int]] = set()
    for i in range(1, MAINNET_NODES):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < MAINNET_EDGES:
        u, v = rng.randrange(MAINNET_NODES), rng.randrange(MAINNET_NODES)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return "".join(f"{u} {v} {rng.uniform(5.0, 100.0):.3f}\n" for u, v in sorted(edges))


def _plan_mainnet_flood(seed: int, work_dir: Path, sizes: dict) -> list[dict]:
    edge_path = work_dir / "mainnet.edges"
    edge_path.write_text(mainnet_edge_list(seed), encoding="utf-8")
    rng = random.Random(seed ^ 0x5EED)
    validators = sorted(rng.sample(range(MAINNET_NODES), MAINNET_VALIDATORS))
    active = validators[: sizes["mainnet_active_validators"]]
    # One emission round at t=0: every validator's proposal and validation
    # are in flight together, which is what deepens the event heap.
    doc = {
        "topology": {"file": str(edge_path), "validators": active},
        "scenario": {
            "duration_ms": 2000,
            "warmup_ms": 0,
            "relay_policy": "flood",
            "ledger_round_ms": 2000,
            "proposals_per_round": 1,
            "seed": seed,
        },
    }
    path = _write_config(work_dir, "mainnet_flood.json", doc)
    graph = {"nodes": MAINNET_NODES, "edges": MAINNET_EDGES}
    return [
        {"verb": "topo-stats", "argv": ["topo-stats", str(edge_path)], "expect": graph},
        _run_command("simulate", path, doc, **graph),
    ]


def _plan_squelch_churn(seed: int, work_dir: Path, sizes: dict) -> list[dict]:
    n = sizes["churn_nodes"]
    duration = sizes["churn_duration_ms"]
    rng = random.Random(seed ^ 0xC4A2)
    # Disconnects on whole seconds in the second half of the run.
    gone = rng.sample(range(n), 3)
    times = [duration // 2000 * 1000 + k * (duration // 6000) * 1000 for k in range(3)]
    doc = {
        "topology": {
            "node_count": n,
            "target_avg_degree": 10.0,
            "validator_fraction": 0.2,
            "latency_range_ms": [5, 50],
        },
        "scenario": {
            "duration_ms": duration,
            "warmup_ms": duration // 8,
            "relay_policy": "squelch",
            "ledger_round_ms": 1000,
            "proposals_per_round": 1,
            "seed": seed,
            "disconnects": [{"at_ms": t, "node": g} for t, g in zip(times, gone)],
        },
        # Squelches of 2-3 s instead of 5-7.5 min, so that slots cycle
        # through expiry, reset and reselection many times in one run.
        "protocol": {"squelch_base_ms": 2000, "squelch_jitter_ms": 1000},
    }
    path = _write_config(work_dir, "squelch_churn.json", doc)
    return [_run_command("simulate", path, doc)]


def _plan_scenario_sweep(seed: int, work_dir: Path, sizes: dict) -> list[dict]:
    count = sizes["sweep_commands"]
    rng = random.Random(seed ^ 0x5A5A)
    # Node counts are stratified over 15-50, degrees cycle through 4-6, and
    # the pairs are shuffled, so that the total work of a sweep and its
    # latency percentiles barely depend on the seed while each command
    # differs.
    shapes = [(15 + (35 * i) // max(count - 1, 1), (4.0, 5.0, 6.0)[i % 3])
              for i in range(count)]
    rng.shuffle(shapes)
    commands = []
    for i, (n, degree) in enumerate(shapes):
        # One validation per validator at t=0 plus one transaction keeps
        # the engine's share of a command small.
        doc = {
            "topology": {
                "node_count": n,
                "target_avg_degree": degree,
                "validator_fraction": 0.1,
                "latency_range_ms": [5, 20],
            },
            "scenario": {
                "duration_ms": 1000,
                "warmup_ms": 0,
                "ledger_round_ms": 1000,
                "proposals_per_round": 0,
                "seed": rng.randrange(1 << 30),
                "tx_plan": [{"start_ms": 100, "trackers": "all", "count": 1}],
            },
        }
        path = _write_config(work_dir, f"sweep_{i:03d}.json", doc)
        commands.append(_run_command("compare", path, doc))
    return commands


_PLANNERS = {
    "reference_compare": _plan_reference_compare,
    "mainnet_flood": _plan_mainnet_flood,
    "squelch_churn": _plan_squelch_churn,
    "scenario_sweep": _plan_scenario_sweep,
}
WORKLOADS = tuple(_PLANNERS)
