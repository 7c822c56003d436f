"""Scenario config files: JSON sections, strict typed keys, canonical hashing.

A config is a JSON document with the flat sections `topology`, `scenario`,
`protocol`, `metrics`, and `output`. The keys of each section, their types
and their defaults are read at import from what the section feeds: the
parameters of `generate_topology` (or, with `file`, of `load_topology`), the
fields of `ScenarioConfig` (`tx_plan` entries are `TxBurst`s, `disconnects`
entries `Disconnect`s) and `ProtocolConfig`, and the parameters of
`summarize`. Only `topology.file`, `output.dir` and a burst's default
`trackers: "all"` are config-only. Unknown sections or keys are rejected by
name and every value is checked against its type. Defaults are filled in
before hashing, so two files describing the same effective run share one
hash. The hash (sha256 over the canonical form: sorted keys, integral floats
normalized to ints, compact separators) is embedded in every output artifact.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import inspect
import json
import os
import sys
import typing
from collections.abc import Callable
from enum import Enum
from pathlib import Path
from typing import Any

from .engine import Disconnect, ScenarioConfig, TxBurst
from .metrics import summarize
from .squelch import ProtocolConfig
from .topology import TopologyGraph, generate_topology, load_topology


class ConfigError(ValueError):
    """A config document is structurally invalid; the message names the key."""


# Bytes a generated graph holds per edge, at least: tracemalloc measured
# 192 retained (284 at peak) on the MainNet yardstick, generate_topology(892,
# 20.62, 0.17, (5, 100), seed=7), and 181-218 on three other shapes, under
# CPython 3.11.
_EDGE_BYTES = 180
# Bytes a run holds per planned transaction, at least: its (at, batch) record
# in the emission plan, a 56-byte tuple, a 24-byte float and a list slot.
# tracemalloc measured 88 at peak per transaction of a 200,000-transaction
# burst, on a triangle and on a 30-node generated graph, under CPython 3.11.
_TX_BYTES = 80
# Bytes the metrics log holds per (second, kind) row besides its 8-byte
# cells, at least: the (second, kind) key tuple and its int, the dict slot,
# the 3-tuple of rows and three list headers. tracemalloc measured 353 per
# row on path graphs of 3, 10 and 40 nodes (2000 s of 1000 ms flood rounds),
# under CPython 3.11.
_ROW_BYTES = 320


# A converter turns a JSON value into the typed value of its field or
# parameter, or raises a ConfigError naming `where`, the dotted key.
Converter = Callable[[Any, str], Any]
_REQUIRED = object()  # the default of a key that has none


def _expect(value: Any, where: str, kinds: type | tuple[type, ...], name: str) -> Any:
    """`value` if it is one of `kinds`; a JSON bool is not a number."""
    if not isinstance(value, kinds) or (isinstance(value, bool) and kinds is not bool):
        raise ConfigError(f"{where} must be {name}, got {value!r}")
    return value


def _float(value: Any, where: str) -> float:
    number = _expect(value, where, (int, float), "a number")
    if not -sys.float_info.max <= number <= sys.float_info.max:  # NaN fails too
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(number)


def _int(value: Any, where: str) -> int:
    if type(value) is not int and not float(
            _expect(value, where, (int, float), "a number")).is_integer():
        raise ConfigError(f"{where} must be an integral number, got {value!r}")
    return int(value)


_SCALARS: dict[Any, Converter] = {
    int: _int,
    float: _float,
    bool: lambda value, where: _expect(value, where, bool, "true or false"),
    str: lambda value, where: _expect(value, where, str, "a string"),
}


@functools.cache
def _converter(tp: Any) -> Converter:
    """The converter for a field or parameter type, built once per type."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in _SCALARS:
        return _SCALARS[tp]
    if isinstance(tp, type) and issubclass(tp, Enum):
        members = {member.value: member for member in tp}

        def enum(value: Any, where: str) -> Enum:
            try:
                return members[value]
            except (KeyError, TypeError):
                raise ConfigError(
                    f"{where} must be one of {list(members)}, got {value!r}") from None
        return enum
    if origin is dict:
        key, item = _converter(args[0]), _converter(args[1])
        return lambda value, where: {
            key(k, f"{where} key"): item(v, f"{where}.{k}")
            for k, v in _expect(value, where, dict, "an object").items()
        }
    if dataclasses.is_dataclass(args[0]):
        return _Objects(args[0])
    build = frozenset if origin is frozenset else tuple
    if origin is tuple and args[-1] is not Ellipsis:  # a fixed-length list
        items = [_converter(arg) for arg in args]

        def fixed(value: Any, where: str) -> tuple:
            if len(_expect(value, where, list, "a list")) != len(items):
                raise ConfigError(f"{where} must be a list of {len(items)}, got {value!r}")
            return build(c(v, f"{where}[{i}]") for i, (c, v) in enumerate(zip(items, value)))
        return fixed
    item = _converter(args[0])
    return lambda value, where: build(
        item(v, f"{where}[{i}]") for i, v in enumerate(_expect(value, where, list, "a list"))
    )


def _to_json(value: Any) -> Any:
    """A typed default in the form a config document writes it."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {_to_json(k): _to_json(v) for k, v in value.items()}
    if isinstance(value, (tuple, set, frozenset)):
        items = [_to_json(v) for v in value]
        return items if isinstance(value, tuple) else sorted(items)
    return value


class _Struct:
    """The keys of one config object, read from the fields of a dataclass or
    the parameters of a function: key -> (parameter, converter, default in
    JSON form). `renamed` maps a parameter to its key; `extra` adds
    config-only keys, which feed no parameter."""

    def __init__(self, source: Any, skip: tuple[str, ...] = (),
                 renamed: dict[str, str] | None = None, **extra: tuple) -> None:
        hints = typing.get_type_hints(source)
        if dataclasses.is_dataclass(source):
            params = [(f.name, f.default if f.default_factory is dataclasses.MISSING
                       else f.default_factory()) for f in dataclasses.fields(source)]
        else:
            params = [(p.name, p.default) for p in inspect.signature(source).parameters.values()]
        self.keys = {key: (None, *spec) for key, spec in extra.items()}
        for name, default in params:
            if name not in skip:
                no_default = default in (dataclasses.MISSING, inspect.Parameter.empty)
                spec = _CONFIG_ONLY.get((source, name)) or (
                    _converter(hints[name]), _REQUIRED if no_default else _to_json(default))
                self.keys[(renamed or {}).get(name, name)] = (name, *spec)

    def check_keys(self, obj: Any, where: str) -> None:
        for key in _expect(obj, where, dict, "an object"):
            if key not in self.keys:
                raise ConfigError(
                    f"unknown key {key!r} in {where}; expected one of {sorted(self.keys)}")

    def fill(self, obj: Any, where: str) -> dict:
        """`obj` with its defaults filled in, every value checked."""
        self.check_keys(obj, where)
        out = {}
        for key, (_, convert, default) in self.keys.items():
            if key not in obj:
                if default is _REQUIRED:
                    raise ConfigError(f"{where} is missing {key!r}")
                out[key] = copy.copy(default)  # defaults are flat
            elif isinstance(convert, _Objects):
                out[key] = convert.fill(obj[key], f"{where}.{key}")
            else:
                convert(obj[key], f"{where}.{key}")
                out[key] = obj[key]
        return out

    def __call__(self, obj: dict, where: str) -> dict:
        """The typed values of a filled object, by parameter."""
        return {param: convert(obj[key], f"{where}.{key}")
                for key, (param, convert, _) in self.keys.items() if param}


class _Objects(_Struct):
    """A JSON list of objects of one dataclass; converted, each object is the
    typed keyword arguments of one instance."""

    def fill(self, value: Any, where: str) -> list[dict]:
        return [_Struct.fill(self, obj, f"{where}[{i}]")
                for i, obj in enumerate(_expect(value, where, list, "a list"))]

    def __call__(self, value: list[dict], where: str) -> list[dict]:
        return [_Struct.__call__(self, obj, f"{where}[{i}]") for i, obj in enumerate(value)]


# A burst's trackers default to "all", which build_scenario resolves.
_CONFIG_ONLY = {(TxBurst, "trackers"): (lambda value, where: value if value == "all"
                                         else _converter(tuple[int, ...])(value, where), "all")}
_FILE_TOPOLOGY = _Struct(load_topology, skip=("edge_list_text",), file=(_SCALARS[str], _REQUIRED),
                         renamed={"validator_ids": "validators"})
_GENERATED_TOPOLOGY = _Struct(generate_topology, skip=("seed",))
_SCENARIO = _Struct(ScenarioConfig, skip=("topology", "protocol", "config_hash"))
_PROTOCOL = _Struct(ProtocolConfig)
_SECTIONS = {
    "topology": _GENERATED_TOPOLOGY,
    "scenario": _SCENARIO,
    "protocol": _PROTOCOL,
    "metrics": _Struct(summarize, skip=("log",),
                       renamed={"include_control": "include_control_in_total"}),
    "output": _Struct(lambda: None, dir=(_SCALARS[str], "")),  # feeds no function
}


def parse_config_text(text: str) -> dict:
    return validate_config(decode_config_text(text))


def decode_config_text(text: str) -> dict:
    """Decode a config document without validating its sections, so that
    overrides can land first."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def validate_config(doc: dict) -> dict:
    """Reject unknown sections and keys, fill defaults, and check every value
    against the type of the field or parameter it feeds."""
    has_file = isinstance(doc.get("topology"), dict) and "file" in doc["topology"]
    sections = {**_SECTIONS, "topology": _FILE_TOPOLOGY} if has_file else _SECTIONS
    for section, given in doc.items():
        if section not in sections:
            raise ConfigError(f"unknown config section {section!r}")
        sections[section].check_keys(given, section)
    return {section: struct.fill(doc.get(section, {}), section)
            for section, struct in sections.items()}


def apply_overrides(doc: dict, assignments: list[str]) -> dict:
    """Apply `--set section.key=value` style overrides onto a raw document.

    Values parse as JSON when possible (numbers, bools, lists) and fall
    back to plain strings. Overrides land before validation and hashing.
    """
    result = json.loads(json.dumps(doc))
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"override {assignment!r} is not of the form key=value")
        dotted, raw_value = assignment.split("=", 1)
        path = dotted.split(".")
        if len(path) < 2:
            raise ConfigError(f"override key {dotted!r} must be section.key")
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        cursor = result
        for part in path[:-1]:
            cursor = cursor.setdefault(part, {})
            if not isinstance(cursor, dict):
                raise ConfigError(f"override path {dotted!r} crosses a non-object")
        cursor[path[-1]] = value
    return result


def _normalize(value: Any) -> Any:
    if isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_normalize(v) for v in value]
    return value


def canonical_json(doc: dict) -> str:
    return json.dumps(_normalize(doc), sort_keys=True, separators=(",", ":"))


def config_hash(doc: dict) -> str:
    digest = hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
    return digest[:16]


def _config_errors(build):
    """A plain TypeError or ValueError raised while `build` runs (a value that
    fails a check of the dataclass or generator it feeds) becomes a
    ConfigError, so a malformed value is a config error. Typed errors such
    as TopologyParameterError pass through unchanged."""

    @functools.wraps(build)
    def wrapper(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except (TypeError, ValueError) as exc:
            if type(exc) not in (TypeError, ValueError):
                raise
            raise ConfigError(str(exc)) from None

    return wrapper


def _physical_memory() -> int | None:
    """This machine's physical memory in bytes, or None where the platform
    does not tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _refuse_oversized(nodes: int, edges: int, scenario: dict) -> None:
    """Refuse a run that cannot fit in physical memory, before its graph is
    built. The bound is the largest of three things that one arm holds at
    least: the graph, `_EDGE_BYTES` per edge; the dense metrics log, a row
    per round kind (a validation, and the proposals when a round has any) in
    each second a round starts in, at most one per second, each
    `_ROW_BYTES` plus one 8-byte list slot per node and direction; and the
    emission plan, `_TX_BYTES` per planned transaction."""
    memory = _physical_memory()
    if memory is None:
        return
    kinds = 1 + (scenario["proposals_per_round"] > 0)
    seconds = scenario["duration_ms"] // max(scenario["ledger_round_ms"], 1000)
    planned = sum(burst["count"] for burst in scenario["tx_plan"])
    need = max(_EDGE_BYTES * edges, seconds * kinds * (_ROW_BYTES + nodes * 3 * 8),
               _TX_BYTES * planned)
    if need > memory:
        raise ConfigError(
            f"{nodes} nodes, {edges} edges and {scenario['duration_ms']} ms need at least "
            f"{need / 2**30:.1f} GiB with {planned} planned transactions, more than the "
            f"{memory / 2**30:.1f} GiB of physical memory")


@_config_errors
def build_topology(doc: dict) -> TopologyGraph:
    topo = doc["topology"]
    if "file" in topo:
        text = Path(topo["file"]).read_text(encoding="utf-8")
        graph = load_topology(text, **_FILE_TOPOLOGY(topo, "topology"))
        _refuse_oversized(graph.node_count, graph.edge_count, doc["scenario"])
        return graph
    params = _GENERATED_TOPOLOGY(topo, "topology")
    n = params["node_count"]
    _refuse_oversized(n, round(params["target_avg_degree"] * n / 2), doc["scenario"])
    seed = _SCENARIO.keys["seed"][1](doc["scenario"]["seed"], "scenario.seed")
    return generate_topology(**params, seed=seed)


@_config_errors
def build_scenario(doc: dict) -> ScenarioConfig:
    """Turn a validated document into a runnable ScenarioConfig."""
    graph = build_topology(doc)
    values = _SCENARIO(doc["scenario"], "scenario")
    all_trackers = tuple(sorted(graph.tracker_set))
    return ScenarioConfig(**{
        **values,
        "topology": graph,
        "tx_plan": tuple(TxBurst(**{**burst, "trackers": all_trackers})
                         if burst["trackers"] == "all" else TxBurst(**burst)
                         for burst in values["tx_plan"]),
        "disconnects": tuple(Disconnect(**d) for d in values["disconnects"]),
        "protocol": ProtocolConfig(**_PROTOCOL(doc["protocol"], "protocol")),
        "config_hash": config_hash(doc),
    })
