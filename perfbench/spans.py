"""In-memory spans around calls into squelchsim's layers.

A span is (name, start, end, parent, command). Spans are kept in a list
and written out at the end of a rep (one pass over a plan). Calls that run
millions of times per command (the squelch transitions) would make a span
list too large and too slow to keep, so they are aggregated per parent span
instead: one record of call count, summed duration and control messages
returned.

Wrappers pass arguments and return values through unchanged. A wrapped name
that the program no longer has is reported as absent, not as an error.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

# (module, attribute, span name). Coarse calls are wrapped in every run:
# a handful per command, enough for set-up time and engine seconds.
COARSE = (
    ("squelchsim.cli", "validate_config", "config.validate_config"),
    ("squelchsim.cli", "build_scenario", "config.build_scenario"),
    ("squelchsim.cli", "run_scenario", "engine.run_scenario"),
    ("squelchsim.cli", "summarize", "metrics.summarize"),
    ("squelchsim.cli", "export_csv", "metrics.export_csv"),
    ("squelchsim.cli", "graph_stats", "topology.graph_stats"),
)
# Wrapped in the traced run only. `should_relay` stays unwrapped: it runs
# once per candidate peer per relay and a wrapper would dominate its time.
TRACED = (
    ("squelchsim.cli", "apply_overrides", "config.apply_overrides"),
    ("squelchsim.cli", "build_topology", "topology.build_topology"),
    ("squelchsim.cli", "load_topology", "topology.load_topology"),
    ("squelchsim.config", "build_topology", "topology.build_topology"),
    ("squelchsim.config", "generate_topology", "topology.generate_topology"),
    ("squelchsim.config", "load_topology", "topology.load_topology"),
)
HOT = (
    ("squelchsim.engine", "on_validator_message", "squelch.on_validator_message"),
    ("squelchsim.engine", "on_squelch_received", "squelch.on_squelch_received"),
    ("squelchsim.engine", "on_unsquelch_received", "squelch.on_unsquelch_received"),
    ("squelchsim.engine", "on_squelch_expired", "squelch.on_squelch_expired"),
    ("squelchsim.engine", "on_uplink_lost", "squelch.on_uplink_lost"),
)
# Transitions whose return value carries control messages to send.
_SENDS_CONTROL = {"squelch.on_validator_message", "squelch.on_uplink_lost"}
# A command's set-up ends where it first enters one of these.
SETUP_ENDS = ("engine.run_scenario", "topology.graph_stats")


class SetupDone(BaseException):
    """Stops a set-up probe where its set-up ends. It derives from
    BaseException so that the CLI's `except Exception` boundary lets it
    through to the caller."""


class Recorder:
    """Spans of one worker process, grouped by command index."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, command, result]
        self.stack: list[int] = []
        self.command = -1
        # (name, parent) -> [calls, seconds, squelches sent, unsquelches sent]
        self.hot: dict[tuple[str, int | None], list] = {}
        self.absent: dict[str, str] = {}
        self.probing = False  # when True, the SETUP_ENDS calls raise SetupDone

    def install(self, modules: dict, traced: bool) -> None:
        for module_name, attr, name in COARSE + (TRACED if traced else ()):
            self._patch(modules[module_name], attr, name, self._coarse)
        if traced:
            for module_name, attr, name in HOT:
                self._patch(modules[module_name], attr, name, self._hot)

    def _patch(self, module, attr: str, name: str, make) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent[name] = f"{module.__name__}.{attr} does not exist"
            return
        setattr(module, attr, make(fn, name))

    def _coarse(self, fn, name: str):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else None, self.command, None]
            spans.append(span)
            if self.probing and name in SETUP_ENDS:
                span[2] = span[1]
                raise SetupDone
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if name == "engine.run_scenario":
                span[5] = (args[0] if args else kwargs.get("cfg"), result)
            return result

        return wrapper

    def _hot(self, fn, name: str):
        hot, stack = self.hot, self.stack
        counts_control = name in _SENDS_CONTROL
        unreadable = name + ".controls"

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - t0
            key = (name, stack[-1] if stack else None)
            rec = hot.get(key)
            if rec is None:
                rec = hot[key] = [0, 0.0, 0, 0]
            rec[0] += 1
            rec[1] += elapsed
            if counts_control and unreadable not in self.absent:
                try:
                    _count_controls(result, rec)
                except (TypeError, ValueError, AttributeError) as exc:
                    self.absent[unreadable] = f"unrecognised return value: {exc}"
            return result

        return wrapper

    def begin_command(self, index: int) -> int:
        """Open the root span of one CLI command; returns its index."""
        self.command = index
        idx = len(self.spans)
        self.spans.append(["cli.main", perf_counter(), 0.0, None, index, None])
        self.stack.append(idx)
        return idx

    def end_command(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def command_spans(self, index: int) -> list[tuple[int, list]]:
        """(span index, span) pairs of one command, its root first."""
        return [(i, s) for i, s in enumerate(self.spans) if s[4] == index]

    def hot_seconds(self, parent: int) -> float:
        """Seconds of aggregated hot calls made under one span."""
        return sum(rec[1] for (_, p), rec in self.hot.items() if p == parent)

    def reset(self) -> None:
        """Forget the spans and aggregates of the rep just measured."""
        self.spans.clear()
        self.stack.clear()
        self.hot.clear()
        self.command = -1

    def release_results(self) -> None:
        """Drop references to run results (logs) once they are checked."""
        for span in self.spans:
            span[5] = None

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, excluding time covered by child spans
        and by aggregated hot calls under them."""
        totals: dict[str, float] = {}
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None:
                covered[span[3]] += span[2] - span[1]
        for (_, parent), rec in self.hot.items():
            if parent is not None:
                covered[parent] += rec[1]
        for idx, span in enumerate(self.spans):
            totals[span[0]] = totals.get(span[0], 0.0) + (span[2] - span[1]) - covered[idx]
        return totals

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for idx, (name, start, end, parent, command, _) in enumerate(self.spans):
                out.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                      "parent": parent, "command": command}) + "\n")
            for (name, parent), (calls, seconds, sq, unsq) in sorted(
                self.hot.items(), key=lambda kv: (kv[0][0], -1 if kv[0][1] is None else kv[0][1])
            ):
                command = self.spans[parent][4] if parent is not None else None
                out.write(json.dumps({"name": name, "parent": parent, "command": command,
                                      "calls": calls, "total_s": seconds,
                                      "squelches": sq, "unsquelches": unsq}) + "\n")


def _count_controls(result, rec: list) -> None:
    """Count squelch and unsquelch messages among the (peer, control)
    actions a transition returned, with or without the state in front."""
    actions = result[1] if isinstance(result, tuple) else result
    for _peer, ctrl in actions:
        if ctrl.kind.value == "squelch":
            rec[2] += 1
        elif ctrl.kind.value == "unsquelch":
            rec[3] += 1
        else:
            raise ValueError(f"control kind {ctrl.kind!r}")
