"""Command-line entry point for scenario runs, comparisons, graph analysis,
and the regression workflows.

Commands: simulate, compare, fit, topo-stats. Exit codes are a stable
contract: 0 success, 1 runtime failure, 2 usage or config error. Every file
artifact embeds the config hash, the seed, and the tool version, and
re-running a command with identical inputs reproduces its outputs byte for
byte.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .config import (
    ConfigError,
    apply_overrides,
    build_scenario,
    decode_config_text,
    validate_config,
)
from .engine import RelayPolicy, ScenarioSetupError, run_scenario
from .metrics import EmptyWindowError, MetricsLog, export_csv, savings, summarize
from .regression import (
    DegenerateFitError,
    GainParameterError,
    NonInvertibleError,
    PointsParseError,
    compute_gain,
    fit_linear,
    invert,
    predict,
    read_points_csv,
)
from .topology import (
    EdgeListParseError,
    TopologyParameterError,
    UnknownNodeError,
    graph_stats,
    load_topology,
)

_USAGE_ERRORS = (
    ConfigError,
    EdgeListParseError,
    UnknownNodeError,
    TopologyParameterError,
    ScenarioSetupError,
    EmptyWindowError,
    DegenerateFitError,
    NonInvertibleError,
    GainParameterError,
    PointsParseError,
    FileNotFoundError,
    IsADirectoryError,
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.handler(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squelchsim",
        description="Dissemination simulator for the flood and squelch relay policies, "
                    "and capacity models.",
    )
    parser.add_argument("--version", action="version", version=f"squelchsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run one scenario and write metrics")
    _add_run_options(simulate)
    simulate.set_defaults(handler=cmd_simulate)

    compare = sub.add_parser(
        "compare", help="run flood and squelch arms of one scenario and report savings"
    )
    _add_run_options(compare)
    compare.set_defaults(handler=cmd_compare)

    fit = sub.add_parser("fit", help="fit a linear model to x,y points from CSV")
    fit.add_argument("points_csv", help="CSV file with a header line and x,y rows")
    fit.add_argument("--x-name", default="x")
    fit.add_argument("--y-name", default="y")
    fit.add_argument("--invert", action="store_true", help="also print the inverted model")
    fit.add_argument("--predict", type=float, metavar="X", help="evaluate the model at X")
    fit.add_argument(
        "--gain",
        nargs=2,
        metavar=("BASELINE_PEERS", "SAVED_FRACTION"),
        help="project gains for a node with BASELINE_PEERS peers saving SAVED_FRACTION of messages",
    )
    fit.add_argument(
        "--cpu-csv",
        metavar="PATH",
        help="CPU-vs-peers points used by --gain (required with --gain)",
    )
    fit.set_defaults(handler=cmd_fit)

    topo = sub.add_parser("topo-stats", help="print hop statistics for an edge-list file")
    topo.add_argument("edge_list", help="edge-list file, one 'u v [latency_ms]' per line")
    topo.set_defaults(handler=cmd_topo_stats)
    return parser


def _add_run_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, metavar="PATH", help="scenario config JSON")
    sub.add_argument("--seed", type=int, metavar="N", help="override scenario.seed")
    sub.add_argument("--out", metavar="DIR", help="output directory")
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override a config value, e.g. --set scenario.duration_ms=60000",
    )


def _load_effective_config(args) -> dict:
    raw = decode_config_text(Path(args.config).read_text(encoding="utf-8"))
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"scenario.seed={args.seed}")
    return validate_config(apply_overrides(raw, overrides))


def _output_dir(args, doc: dict) -> Path:
    out = args.out or doc["output"]["dir"] or os.environ.get("SQUELCHSIM_OUT") or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _artifact_header(config_hash: str, seed: int, policy: str) -> str:
    return (
        f"# config_hash={config_hash}\n"
        f"# seed={seed}\n"
        f"# tool_version={__version__}\n"
        f"# policy={policy}\n"
    )


def _write_metrics_csv(path: Path, log: MetricsLog) -> None:
    path.write_text(
        _artifact_header(log.config_hash, log.seed, log.policy) + export_csv(log),
        encoding="utf-8",
    )


def cmd_simulate(args) -> int:
    doc = _load_effective_config(args)
    out_dir = _output_dir(args, doc)
    cfg = build_scenario(doc)
    log = run_scenario(cfg)
    _write_metrics_csv(out_dir / "metrics.csv", log)
    summary = summarize(log, include_control=doc["metrics"]["include_control_in_total"])
    payload = {
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "tool_version": __version__,
        "policy": cfg.relay_policy.value,
        "summary": asdict(summary),
    }
    (out_dir / "summary.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {out_dir / 'metrics.csv'} and {out_dir / 'summary.json'}")
    return 0


def cmd_compare(args) -> int:
    doc = _load_effective_config(args)
    out_dir = _output_dir(args, doc)
    cfg = build_scenario(doc)
    include_control = doc["metrics"]["include_control_in_total"]

    logs: dict[str, MetricsLog] = {}
    summaries = {}
    for policy in (RelayPolicy.FLOOD, RelayPolicy.SQUELCH):
        log = run_scenario(replace(cfg, relay_policy=policy))
        logs[policy.value] = log
        summaries[policy.value] = summarize(log, include_control=include_control)

    report = savings(summaries["flood"], summaries["squelch"])
    payload = {
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "tool_version": __version__,
        "flood": asdict(summaries["flood"]),
        "squelch": asdict(summaries["squelch"]),
        "savings": asdict(report),
    }
    (out_dir / "compare.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    cumulative = _cumulative_series(logs["flood"], logs["squelch"])
    (out_dir / "cumulative.csv").write_text(
        _artifact_header(cfg.config_hash, cfg.seed, "compare") + cumulative,
        encoding="utf-8",
    )
    print(
        f"flood {summaries['flood'].avg_total_msgs_per_sec:.3f} msg/s, "
        f"squelch {summaries['squelch'].avg_total_msgs_per_sec:.3f} msg/s, "
        f"saved {report.saved_percent:.3f}%"
    )
    print(f"wrote {out_dir / 'compare.json'} and {out_dir / 'cumulative.csv'}")
    return 0


def _cumulative_series(flood: MetricsLog, squelch: MetricsLog) -> str:
    """Per-second network-wide in/out totals for both arms, plus running sums."""
    per_second: dict[int, list[int]] = {}
    for column, log in ((0, flood), (2, squelch)):
        for (_, second, _, direction), n in log.counts.items():
            row = per_second.setdefault(second, [0, 0, 0, 0])
            row[column + (0 if direction == "in" else 1)] += n
    lines = [
        "second,flood_in,flood_out,squelch_in,squelch_out,"
        "flood_in_cum,flood_out_cum,squelch_in_cum,squelch_out_cum"
    ]
    running = [0, 0, 0, 0]
    for second in range(max(per_second, default=-1) + 1):
        row = per_second.get(second, [0, 0, 0, 0])
        running = [a + b for a, b in zip(running, row)]
        lines.append(
            f"{second},{row[0]},{row[1]},{row[2]},{row[3]},"
            f"{running[0]},{running[1]},{running[2]},{running[3]}"
        )
    return "\n".join(lines) + "\n"


def cmd_fit(args) -> int:
    points = read_points_csv(Path(args.points_csv).read_text(encoding="utf-8"))
    model = fit_linear(points, x_name=args.x_name, y_name=args.y_name)
    payload: dict = {"model": asdict(model)}
    if args.invert:
        payload["inverse"] = asdict(invert(model))
    if args.predict is not None:
        if not math.isfinite(args.predict):
            raise ConfigError(f"--predict needs a finite X, got {args.predict}")
        y = predict(model, args.predict)
        if not math.isfinite(y):
            raise ConfigError(f"--predict {args.predict} overflows the fitted line")
        payload["prediction"] = {"x": args.predict, "y": y}
    if args.gain is not None:
        if not args.cpu_csv:
            raise ConfigError("--gain requires --cpu-csv with CPU-vs-peers points")
        try:
            baseline_peers, saved_fraction = int(args.gain[0]), float(args.gain[1])
        except ValueError as exc:
            raise ConfigError(f"--gain BASELINE_PEERS SAVED_FRACTION: {exc}") from None
        cpu_points = read_points_csv(Path(args.cpu_csv).read_text(encoding="utf-8"))
        cpu_model = fit_linear(cpu_points, x_name="peers", y_name="cpu_percent")
        msgs_model = fit_linear(points, x_name="peers", y_name="messages_per_s")
        gain = compute_gain(cpu_model, msgs_model, baseline_peers, saved_fraction)
        payload["gain"] = asdict(gain)
        payload["cpu_model"] = asdict(cpu_model)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_topo_stats(args) -> int:
    text = Path(args.edge_list).read_text(encoding="utf-8")
    graph = load_topology(text)
    stats = graph_stats(graph)
    print(json.dumps(asdict(stats), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
