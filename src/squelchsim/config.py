"""Scenario config files: JSON sections, strict keys, canonical hashing.

A config is a JSON document with the flat sections `topology`, `scenario`,
`protocol`, `metrics`, and `output`. Unknown sections or keys are rejected
by name. Defaults are filled in before hashing, so two files describing the
same effective run share one hash. The hash (sha256 over the canonical
form: sorted keys, integral floats normalized to ints, compact separators)
is embedded in every output artifact.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Any

from .engine import Disconnect, RelayPolicy, ScenarioConfig, TxBurst
from .messages import DEFAULT_MESSAGE_SIZES, MessageKind
from .squelch import ProtocolConfig
from .topology import (
    DEFAULT_EDGE_LATENCY_MS,
    TopologyGraph,
    generate_topology,
    load_topology,
)


class ConfigError(ValueError):
    """A config document is structurally invalid; the message names the key."""


_TOPOLOGY_FILE_KEYS = {"file", "validators", "default_latency_ms"}
_TOPOLOGY_GEN_KEYS = {
    "node_count",
    "target_avg_degree",
    "validator_fraction",
    "latency_range_ms",
}
_SECTION_KEYS = {
    "topology": _TOPOLOGY_FILE_KEYS | _TOPOLOGY_GEN_KEYS,
    "scenario": {
        "duration_ms",
        "warmup_ms",
        "relay_policy",
        "ledger_round_ms",
        "proposals_per_round",
        "seed",
        "tx_plan",
        "message_sizes",
        "disconnects",
    },
    "protocol": {
        "count_threshold",
        "max_selected",
        "squelch_base_ms",
        "squelch_jitter_ms",
        "squelch_kinds",
    },
    "metrics": {"include_control_in_total"},
    "output": {"dir"},
}
_BURST_KEYS = {"start_ms", "trackers", "count", "rate_per_s"}
_DISCONNECT_KEYS = {"at_ms", "node"}

_SCENARIO_DEFAULTS = {
    "warmup_ms": 10_000,
    "relay_policy": "flood",
    "ledger_round_ms": 1000,
    "proposals_per_round": 1,
    "seed": 0,
    "tx_plan": [],
    "disconnects": [],
}
_PROTOCOL_DEFAULTS = {
    "count_threshold": 10,
    "max_selected": 3,
    "squelch_base_ms": 300_000,
    "squelch_jitter_ms": 150_000,
    "squelch_kinds": ["proposal", "validation"],
}
_METRICS_DEFAULTS = {"include_control_in_total": True}


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


def load_config_file(path: str | Path) -> dict:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def validate_config(doc: dict) -> dict:
    """Reject unknown sections/keys, fill defaults, sanity-check values."""
    for section in doc:
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(doc[section], dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key in doc[section]:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section {section!r}")

    out = {section: dict(doc.get(section, {})) for section in _SECTION_KEYS}

    topo = out["topology"]
    has_file = "file" in topo
    gen_present = _TOPOLOGY_GEN_KEYS & set(topo)
    if has_file and gen_present:
        raise ConfigError(
            f"topology mixes 'file' with generator keys {sorted(gen_present)}"
        )
    if not has_file:
        missing = _TOPOLOGY_GEN_KEYS - set(topo)
        if missing:
            raise ConfigError(f"topology is missing generator keys {sorted(missing)}")
    if has_file:
        topo.setdefault("validators", [])
        topo.setdefault("default_latency_ms", DEFAULT_EDGE_LATENCY_MS)

    scenario = out["scenario"]
    if "duration_ms" not in scenario:
        raise ConfigError("scenario is missing required key 'duration_ms'")
    for key, value in _SCENARIO_DEFAULTS.items():
        scenario.setdefault(key, value)
    scenario.setdefault(
        "message_sizes", {k.value: v for k, v in DEFAULT_MESSAGE_SIZES.items()}
    )
    if scenario["relay_policy"] not in ("flood", "squelch"):
        raise ConfigError(
            f"scenario.relay_policy must be 'flood' or 'squelch', got {scenario['relay_policy']!r}"
        )
    for kind_name in scenario["message_sizes"]:
        _kind_from_name(kind_name, "scenario.message_sizes")
    if not isinstance(scenario["tx_plan"], list):
        raise ConfigError("scenario.tx_plan must be a list")
    for i, burst in enumerate(scenario["tx_plan"]):
        if not isinstance(burst, dict):
            raise ConfigError(f"scenario.tx_plan[{i}] must be an object")
        for key in burst:
            if key not in _BURST_KEYS:
                raise ConfigError(f"unknown key {key!r} in scenario.tx_plan[{i}]")
        for key in ("start_ms", "count"):
            if key not in burst:
                raise ConfigError(f"scenario.tx_plan[{i}] is missing {key!r}")
        burst.setdefault("trackers", "all")
        burst.setdefault("rate_per_s", 0)
    for i, disc in enumerate(scenario["disconnects"]):
        if not isinstance(disc, dict) or set(disc) != _DISCONNECT_KEYS:
            raise ConfigError(
                f"scenario.disconnects[{i}] must have exactly keys {sorted(_DISCONNECT_KEYS)}"
            )

    protocol = out["protocol"]
    for key, value in _PROTOCOL_DEFAULTS.items():
        protocol.setdefault(key, value)
    if not isinstance(protocol["squelch_kinds"], list):
        raise ConfigError("protocol.squelch_kinds must be a list of message kinds")
    for kind_name in protocol["squelch_kinds"]:
        _kind_from_name(kind_name, "protocol.squelch_kinds")

    for key, value in _METRICS_DEFAULTS.items():
        out["metrics"].setdefault(key, value)
    out["output"].setdefault("dir", "")
    return out


def _kind_from_name(name: Any, where: str) -> MessageKind:
    try:
        return MessageKind(name)
    except ValueError:
        raise ConfigError(f"unknown message kind {name!r} in {where}") from None


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


def _read(section: dict, where: str, **converters) -> dict:
    """The named values of a config section, each through its converter. A
    value that does not convert is a ConfigError naming its key."""
    values = {}
    for key, convert in converters.items():
        try:
            values[key] = convert(section[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}.{key}: {exc}") from None
    return values


def _float_pair(value: Any) -> tuple[float, float]:
    low, high = value
    return float(low), float(high)


@_config_errors
def build_topology(doc: dict) -> TopologyGraph:
    topo = doc["topology"]
    if "file" in topo:
        text = Path(topo["file"]).read_text(encoding="utf-8")
        values = _read(topo, "topology", validators=set, default_latency_ms=float)
        return load_topology(text, values["validators"], values["default_latency_ms"])
    return generate_topology(
        **_read(topo, "topology", node_count=int, target_avg_degree=float,
                validator_fraction=float, latency_range_ms=_float_pair),
        **_read(doc["scenario"], "scenario", seed=int),
    )


@_config_errors
def build_scenario(
    doc: dict,
    topology: TopologyGraph | None = None,
    relay_policy: RelayPolicy | None = None,
) -> ScenarioConfig:
    """Turn a validated document into a runnable ScenarioConfig.

    `relay_policy` overrides the document's policy (the compare command runs
    both arms from one file); the config hash always reflects the document.
    """
    graph = topology if topology is not None else build_topology(doc)
    scenario = doc["scenario"]
    all_trackers = tuple(sorted(graph.tracker_set))

    bursts = []
    for i, burst in enumerate(scenario["tx_plan"]):
        trackers = burst["trackers"]
        if trackers == "all":
            resolved = all_trackers
        else:
            resolved = tuple(int(t) for t in trackers)
        bursts.append(TxBurst(
            trackers=resolved,
            **_read(burst, f"scenario.tx_plan[{i}]", start_ms=float, count=int, rate_per_s=float),
        ))

    sizes = _read(scenario["message_sizes"], "scenario.message_sizes",
                  **dict.fromkeys(scenario["message_sizes"], int))
    protocol_doc = doc["protocol"]
    protocol = ProtocolConfig(
        **_read(protocol_doc, "protocol", count_threshold=int, max_selected=int,
                squelch_base_ms=int, squelch_jitter_ms=int),
        squelch_kinds=frozenset(
            _kind_from_name(k, "protocol.squelch_kinds")
            for k in protocol_doc["squelch_kinds"]
        ),
    )
    policy = relay_policy or RelayPolicy(scenario["relay_policy"])
    return ScenarioConfig(
        topology=graph,
        relay_policy=policy,
        tx_plan=tuple(bursts),
        protocol=protocol,
        message_sizes={
            _kind_from_name(name, "scenario.message_sizes"): size
            for name, size in sizes.items()
        },
        disconnects=tuple(
            Disconnect(**_read(d, f"scenario.disconnects[{i}]", at_ms=float, node=int))
            for i, d in enumerate(scenario["disconnects"])
        ),
        config_hash=config_hash(doc),
        **_read(scenario, "scenario", duration_ms=int, ledger_round_ms=int,
                proposals_per_round=int, seed=int, warmup_ms=int),
    )
