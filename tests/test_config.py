from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from squelchsim.config import (
    ConfigError,
    apply_overrides,
    build_scenario,
    canonical_json,
    config_hash,
    parse_config_text,
    validate_config,
)
from squelchsim.engine import RelayPolicy, ScenarioConfig
from squelchsim.messages import MessageKind


def minimal_doc(**scenario_extra):
    doc = {
        "topology": {
            "node_count": 8,
            "target_avg_degree": 4.0,
            "validator_fraction": 0.25,
            "latency_range_ms": [5, 20],
        },
        "scenario": {"duration_ms": 5000, "warmup_ms": 0},
    }
    doc["scenario"].update(scenario_extra)
    return doc


def test_unknown_key_named_in_error():
    doc = minimal_doc()
    doc["scenario"]["spelch"] = True
    with pytest.raises(ConfigError, match="spelch"):
        validate_config(doc)


def test_unknown_section_rejected():
    doc = minimal_doc()
    doc["simulator"] = {}
    with pytest.raises(ConfigError, match="simulator"):
        validate_config(doc)


def test_defaults_filled():
    out = validate_config(minimal_doc())
    assert out["scenario"]["relay_policy"] == "flood"
    assert out["scenario"]["seed"] == 0
    assert out["protocol"]["count_threshold"] == 10
    assert out["protocol"]["max_selected"] == 3
    assert out["protocol"]["squelch_base_ms"] == 300_000
    assert out["metrics"]["include_control_in_total"] is True


def test_missing_duration_rejected():
    doc = minimal_doc()
    del doc["scenario"]["duration_ms"]
    with pytest.raises(ConfigError, match="duration_ms"):
        validate_config(doc)


def test_topology_file_and_generator_keys_conflict():
    doc = minimal_doc()
    doc["topology"]["file"] = "whatever.edges"
    with pytest.raises(ConfigError):
        validate_config(doc)


def test_bad_relay_policy():
    with pytest.raises(ConfigError, match="relay_policy"):
        validate_config(minimal_doc(relay_policy="broadcast"))


def test_bad_message_kind_in_sizes():
    with pytest.raises(ConfigError, match="gossip"):
        validate_config(minimal_doc(message_sizes={"gossip": 100}))


def test_tx_plan_validation():
    with pytest.raises(ConfigError, match="start_ms"):
        validate_config(minimal_doc(tx_plan=[{"count": 5}]))
    with pytest.raises(ConfigError, match="ratez"):
        validate_config(minimal_doc(tx_plan=[{"start_ms": 0, "count": 5, "ratez": 1}]))


def test_hash_stable_under_key_order_and_number_format():
    a = validate_config(minimal_doc())
    b = validate_config(json.loads(json.dumps(minimal_doc())))
    b["scenario"] = dict(reversed(list(b["scenario"].items())))
    assert config_hash(a) == config_hash(b)
    c = validate_config(minimal_doc())
    c["scenario"]["duration_ms"] = 5000.0  # same effective value
    assert config_hash(a) == config_hash(c)


def test_hash_changes_with_content():
    a = validate_config(minimal_doc())
    b = validate_config(minimal_doc(seed=99))
    assert config_hash(a) != config_hash(b)


def test_canonical_json_sorted_compact():
    text = canonical_json({"b": 2.0, "a": {"y": True, "x": [1.5, 2.0]}})
    assert text == '{"a":{"x":[1.5,2],"y":true},"b":2}'


def test_apply_overrides():
    doc = apply_overrides(minimal_doc(), ["scenario.seed=7", "protocol.max_selected=2"])
    out = validate_config(doc)
    assert out["scenario"]["seed"] == 7
    assert out["protocol"]["max_selected"] == 2
    with pytest.raises(ConfigError):
        apply_overrides(minimal_doc(), ["no_equals_sign"])
    with pytest.raises(ConfigError):
        apply_overrides(minimal_doc(), ["toplevel=3"])


def test_build_scenario_resolves_all_trackers():
    doc = validate_config(
        minimal_doc(tx_plan=[{"start_ms": 100, "count": 4, "trackers": "all"}])
    )
    cfg = build_scenario(doc)
    assert cfg.relay_policy is RelayPolicy.FLOOD
    assert cfg.tx_plan[0].trackers == tuple(sorted(cfg.topology.tracker_set))
    assert cfg.config_hash == config_hash(doc)
    assert cfg.protocol.squelch_kinds == frozenset(
        {MessageKind.PROPOSAL, MessageKind.VALIDATION}
    )


def test_build_scenario_from_topology_file(tmp_path):
    edge_file = tmp_path / "graph.edges"
    edge_file.write_text("0 1 10\n1 2 10\n0 2 10\n")
    doc = validate_config(
        {
            "topology": {"file": str(edge_file), "validators": [0]},
            "scenario": {"duration_ms": 3000, "warmup_ms": 0},
        }
    )
    cfg = build_scenario(doc)
    assert cfg.topology.validator_set == {0}
    assert cfg.topology.edge_count == 3


def test_parse_config_text_rejects_non_object():
    with pytest.raises(ConfigError):
        parse_config_text("[1, 2]")
    with pytest.raises(ConfigError):
        parse_config_text("{nope")


REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference_testbed.json"


MAINNET_CONFIG = REFERENCE_CONFIG.with_name("mainnet_scale.json")


def test_mainnet_scale_config_builds_the_yardstick():
    """The shipped MainNet config generates the paper's 892-node network at
    average degree 20.62: 9197 edges and 152 validators, with one proposal
    per 1000 ms round, a 10 s warm-up and no transactions."""
    cfg = build_scenario(validate_config(json.loads(MAINNET_CONFIG.read_text())))
    g = cfg.topology
    assert (len(g.nodes), g.edge_count, len(g.validator_set)) == (892, 9197, 152)
    assert (cfg.seed, cfg.ledger_round_ms, cfg.proposals_per_round, cfg.warmup_ms,
            cfg.tx_plan) == (7, 1000, 1, 10_000, ())


@pytest.mark.parametrize("seed,expected", [
    (1, "74e2dab5750a0c03"), (2, "1aecd80073cfc895"), (3, "b4949bfad34292e8"),
])
def test_reference_config_hash_pinned(seed, expected):
    raw = json.loads(REFERENCE_CONFIG.read_text())
    doc = validate_config(apply_overrides(raw, [f"scenario.seed={seed}"]))
    assert config_hash(doc) == expected


def test_defaults_only_config_hash_pinned():
    # Every defaultable key left out: file topology, a burst without
    # trackers and rate, one disconnect.
    doc = validate_config({
        "topology": {"file": "graph.edges"},
        "scenario": {"duration_ms": 3000, "tx_plan": [{"start_ms": 100, "count": 4}],
                     "disconnects": [{"at_ms": 1500, "node": 2}]},
    })
    assert doc["topology"] == {"file": "graph.edges", "validators": [],
                               "default_latency_ms": 20.0}
    assert doc["scenario"]["tx_plan"] == [
        {"start_ms": 100, "trackers": "all", "count": 4, "rate_per_s": 0.0}
    ]
    assert config_hash(doc) == "dc7952fec60516a0"


def test_defaults_come_from_the_dataclasses():
    cfg = build_scenario(validate_config(minimal_doc()))
    assert cfg == ScenarioConfig(topology=cfg.topology, duration_ms=5000, warmup_ms=0,
                                 config_hash=cfg.config_hash)


@pytest.mark.parametrize("key,value", [
    ("seed", 1.5), ("seed", True), ("duration_ms", "5000"), ("relay_policy", 1),
    ("tx_plan", {}), ("disconnects", [{"at_ms": 1, "node": 2, "why": 3}]),
    ("message_sizes", {"transaction": 600.5}),
    ("tx_plan", [{"start_ms": float("nan"), "count": 1}]),
    ("disconnects", [{"at_ms": float("inf"), "node": 2}]),
])
def test_value_type_checked_by_key(key, value):
    with pytest.raises(ConfigError, match=re.escape(f"scenario.{key}")):
        validate_config(minimal_doc(**{key: value}))


def test_integral_numbers_accepted_for_int_keys():
    cfg = build_scenario(validate_config(minimal_doc(duration_ms=5000.0, seed=7.0)))
    assert cfg.duration_ms == 5000 and type(cfg.duration_ms) is int
    assert cfg.seed == 7 and type(cfg.seed) is int
