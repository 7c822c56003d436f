from __future__ import annotations

import hashlib
import json
import logging
import random
from pathlib import Path

import pytest

from squelchsim import engine
from squelchsim.config import apply_overrides, build_scenario, validate_config
from squelchsim.engine import (
    Disconnect,
    NodeState,
    RelayPolicy,
    ScenarioConfig,
    ScenarioSetupError,
    TxBurst,
    relay_decision_flood,
    relay_decision_squelch,
    run_scenario,
)
from squelchsim.messages import APPLICATION_KINDS, CONTROL_KINDS, MessageKind, SimMessage
from squelchsim.metrics import EmptyWindowError, export_csv, summarize
from squelchsim.squelch import ProtocolConfig
from squelchsim.topology import TopologyGraph, generate_topology, load_topology


def graph_from_edges(edge_list, validators=frozenset(), latency=10.0):
    edges = frozenset(tuple(sorted(e)) for e in edge_list)
    nodes = tuple(sorted({x for e in edges for x in e}))
    return TopologyGraph(
        nodes=nodes,
        edges=edges,
        latency_ms={e: latency for e in edges},
        validator_set=frozenset(validators),
        tracker_set=frozenset(nodes) - frozenset(validators),
    )


K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
PATH3 = [(0, 1), (1, 2)]


def out_total(log, kind=None, application_only=False):
    total = 0
    for (node, second, k, direction), n in log.counts.items():
        if direction != "out":
            continue
        if kind is not None and k is not kind:
            continue
        if application_only and k not in APPLICATION_KINDS:
            continue
        total += n
    return total


def in_by_node(log, kind):
    result: dict[int, int] = {}
    for (node, second, k, direction), n in log.counts.items():
        if direction == "in" and k is kind:
            result[node] = result.get(node, 0) + n
    return result


def dup_by_node(log, kind):
    result: dict[int, int] = {}
    for (node, second, k), n in log.duplicates.items():
        if k is kind:
            result[node] = result.get(node, 0) + n
    return result


# --- relay decisions -----------------------------------------------------------

def make_node(node_id=0, neighbors=(1, 2, 3)):
    return NodeState(node_id, tuple(neighbors), {p: 10.0 for p in neighbors},
                     ProtocolConfig())


def test_flood_excludes_sender():
    node = make_node()
    msg = SimMessage(MessageKind.PROPOSAL, 9, 0, 200)
    assert relay_decision_flood(node, msg, 1) == [2, 3]


def test_flood_origin_sends_everywhere():
    node = make_node()
    msg = SimMessage(MessageKind.PROPOSAL, 0, 0, 200)
    assert relay_decision_flood(node, msg, None) == [1, 2, 3]


def test_squelch_decision_without_squelches_equals_flood():
    node = make_node()
    msg = SimMessage(MessageKind.VALIDATION, 9, 0, 150)
    assert relay_decision_squelch(node, msg, 1, 0.0) == relay_decision_flood(node, msg, 1)


def test_squelch_decision_filters_squelched_peer():
    node = make_node()
    node.links[2].downlink_squelches[9] = 10_000.0
    msg = SimMessage(MessageKind.VALIDATION, 9, 0, 150)
    assert relay_decision_squelch(node, msg, 1, 0.0) == [3]


def test_squelch_decision_transactions_always_flood():
    node = make_node()
    node.links[2].downlink_squelches[9] = 10_000.0
    msg = SimMessage(MessageKind.TRANSACTION, 9, 0, 600)
    assert relay_decision_squelch(node, msg, 1, 0.0) == [2, 3]


# --- flood baselines ------------------------------------------------------------

def test_k4_single_round_transmissions():
    g = graph_from_edges(K4, validators={0})
    cfg = ScenarioConfig(topology=g, duration_ms=5000, relay_policy=RelayPolicy.FLOOD,
                         ledger_round_ms=100_000, warmup_ms=0)
    log = run_scenario(cfg)
    # one message floods over 2|E| - (N-1) = 9 link transmissions
    assert out_total(log, MessageKind.VALIDATION) == 9
    assert out_total(log, MessageKind.PROPOSAL) == 9


def test_path_graph_single_round():
    g = graph_from_edges(PATH3, validators={0})
    cfg = ScenarioConfig(topology=g, duration_ms=5000, relay_policy=RelayPolicy.FLOOD,
                         ledger_round_ms=100_000, warmup_ms=0)
    log = run_scenario(cfg)
    received = in_by_node(log, MessageKind.VALIDATION)
    assert received == {1: 1, 2: 1}
    assert out_total(log, MessageKind.VALIDATION) == 2


@pytest.mark.parametrize("seed", range(20))
def test_flood_transmission_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(5, 50)
    g = generate_topology(n, min(n - 1, rng.uniform(3, 8)), 0.3, (5, 30), seed=seed)
    burst = TxBurst(start_ms=100.0, trackers=(sorted(g.tracker_set)[0],), count=1)
    cfg = ScenarioConfig(topology=g, duration_ms=8000, relay_policy=RelayPolicy.FLOOD,
                         ledger_round_ms=100_000, warmup_ms=0, tx_plan=(burst,))
    log = run_scenario(cfg)
    assert out_total(log, MessageKind.TRANSACTION) == 2 * g.edge_count - (n - 1)


# --- delivery completeness and accounting ----------------------------------------

def completeness_scenario(seed, policy):
    rng = random.Random(seed)
    n = rng.randint(15, 50)
    g = generate_topology(n, rng.uniform(4, 8), 0.15, (5, 30), seed=seed)
    protocol = ProtocolConfig(count_threshold=2, max_selected=2)
    burst = TxBurst(start_ms=4000.0, trackers=(), count=10)
    return g, ScenarioConfig(
        topology=g, duration_ms=8500, relay_policy=policy, ledger_round_ms=3000,
        warmup_ms=0, tx_plan=(burst,), protocol=protocol, seed=seed,
    )


def assert_complete(g, cfg, log):
    rounds = 3  # emissions at 0, 3000, 6000 all finish within the margin
    validators = sorted(g.validator_set)
    emitted = {
        MessageKind.PROPOSAL: {v: rounds * cfg.proposals_per_round for v in validators},
        MessageKind.VALIDATION: {v: rounds for v in validators},
        MessageKind.TRANSACTION: {},
    }
    trackers = sorted(g.tracker_set)
    for burst in cfg.tx_plan:
        group = burst.trackers or tuple(trackers)
        for i in range(burst.count):
            origin = group[i % len(group)]
            emitted[MessageKind.TRANSACTION][origin] = (
                emitted[MessageKind.TRANSACTION].get(origin, 0) + 1
            )
    for kind, per_origin in emitted.items():
        total = sum(per_origin.values())
        if total == 0:
            continue
        received = in_by_node(log, kind)
        dups = dup_by_node(log, kind)
        for node in g.nodes:
            unique = received.get(node, 0) - dups.get(node, 0)
            expected = total - per_origin.get(node, 0)
            assert unique == expected, (
                f"node {node} got {unique} unique {kind.value} messages, expected {expected}"
            )


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("policy", [RelayPolicy.FLOOD, RelayPolicy.SQUELCH])
def test_delivery_completeness(seed, policy):
    g, cfg = completeness_scenario(seed, policy)
    log = run_scenario(cfg)
    assert_complete(g, cfg, log)


@pytest.mark.parametrize("seed", range(5))
def test_monotone_improvement(seed):
    g, cfg_flood = completeness_scenario(seed, RelayPolicy.FLOOD)
    _, cfg_squelch = completeness_scenario(seed, RelayPolicy.SQUELCH)
    flood = out_total(run_scenario(cfg_flood), application_only=True)
    squelch = out_total(run_scenario(cfg_squelch), application_only=True)
    assert squelch <= flood


def test_per_second_conservation():
    g, cfg = completeness_scenario(3, RelayPolicy.SQUELCH)
    log = run_scenario(cfg)
    per_second: dict[tuple[int, MessageKind], dict[str, int]] = {}
    for (node, second, kind, direction), n in log.counts.items():
        per_second.setdefault((second, kind), {"in": 0, "out": 0})[direction] += n
    assert per_second
    for (second, kind), io in per_second.items():
        assert io["in"] == io["out"], f"second {second} {kind}: {io}"


def test_duplicate_accounting_reconciles():
    g = graph_from_edges(K4, validators={0})
    cfg = ScenarioConfig(topology=g, duration_ms=5000, relay_policy=RelayPolicy.FLOOD,
                         ledger_round_ms=100_000, warmup_ms=0)
    log = run_scenario(cfg)
    # 9 transmissions, 3 unique receipts (origin already has it): 6 duplicates
    received = sum(in_by_node(log, MessageKind.VALIDATION).values())
    dups = sum(dup_by_node(log, MessageKind.VALIDATION).values())
    assert received == 9
    assert received - dups == 3


# --- squelch-policy specifics ------------------------------------------------------

def squelchy_scenario(policy, seed=1, **overrides):
    g = generate_topology(15, 8.0, 1 / 3, (5, 50), seed=seed)
    defaults = dict(
        topology=g, duration_ms=30_000, relay_policy=policy, ledger_round_ms=500,
        warmup_ms=5000, protocol=ProtocolConfig(count_threshold=5, max_selected=3),
        seed=seed,
    )
    defaults.update(overrides)
    return g, ScenarioConfig(**defaults)


def test_squelch_emits_control_traffic_and_cuts_consensus():
    _, cfg_f = squelchy_scenario(RelayPolicy.FLOOD)
    _, cfg_s = squelchy_scenario(RelayPolicy.SQUELCH)
    flood_log = run_scenario(cfg_f)
    squelch_log = run_scenario(cfg_s)
    squelch_ctrl = sum(
        n for (_, _, k, d), n in squelch_log.counts.items() if k in CONTROL_KINDS
    )
    assert squelch_ctrl > 0
    assert sum(n for (_, _, k, _), n in flood_log.counts.items() if k in CONTROL_KINDS) == 0
    assert out_total(squelch_log, MessageKind.VALIDATION) < out_total(
        flood_log, MessageKind.VALIDATION
    )


def test_max_selected_above_degree_changes_nothing():
    # Selection can never fill, so no peer is ever squelched and the squelch
    # arm reproduces the flood arm's traffic exactly.
    protocol = ProtocolConfig(count_threshold=5, max_selected=15)
    _, cfg_f = squelchy_scenario(RelayPolicy.FLOOD, protocol=protocol)
    _, cfg_s = squelchy_scenario(RelayPolicy.SQUELCH, protocol=protocol)
    assert export_csv(run_scenario(cfg_s)) == export_csv(run_scenario(cfg_f))


def test_determinism_both_policies():
    for policy in (RelayPolicy.FLOOD, RelayPolicy.SQUELCH):
        _, cfg_a = squelchy_scenario(policy)
        _, cfg_b = squelchy_scenario(policy)
        assert export_csv(run_scenario(cfg_a)) == export_csv(run_scenario(cfg_b))


def test_disconnect_triggers_unsquelch_and_stops_node():
    g, cfg = squelchy_scenario(
        RelayPolicy.SQUELCH, duration_ms=30_000,
        disconnects=(Disconnect(at_ms=15_000.0, node=0),),
    )
    log = run_scenario(cfg)
    unsquelch_out = sum(
        n for (_, _, k, d), n in log.counts.items()
        if k is MessageKind.UNSQUELCH and d == "out"
    )
    # node 0 had been selected somewhere, so its loss frees squelched peers
    assert unsquelch_out > 0
    late_in = sum(
        n for (node, second, k, d), n in log.counts.items()
        if node == 0 and d == "in" and second >= 16
    )
    assert late_in == 0


# --- setup errors and degenerate runs ------------------------------------------------

def test_disconnected_topology_rejected():
    g = graph_from_edges([(0, 1), (2, 3)])
    with pytest.raises(ScenarioSetupError):
        run_scenario(ScenarioConfig(topology=g, duration_ms=2000,
                                    relay_policy=RelayPolicy.FLOOD, warmup_ms=0))


def test_burst_with_unknown_tracker_rejected():
    g = graph_from_edges(K4)
    burst = TxBurst(start_ms=0.0, trackers=(99,), count=1)
    with pytest.raises(ScenarioSetupError):
        run_scenario(ScenarioConfig(topology=g, duration_ms=2000,
                                    relay_policy=RelayPolicy.FLOOD, warmup_ms=0,
                                    tx_plan=(burst,)))


def test_no_emitters_warns_and_yields_empty_log(caplog):
    g = graph_from_edges(K4)  # no validators, no transactions
    cfg = ScenarioConfig(topology=g, duration_ms=2000, relay_policy=RelayPolicy.FLOOD,
                         warmup_ms=0)
    with caplog.at_level(logging.WARNING):
        log = run_scenario(cfg)
    assert any("no application traffic" in rec.message for rec in caplog.records)
    assert not log.counts
    with pytest.raises(EmptyWindowError):
        summarize(log)


def test_config_invariants():
    g = graph_from_edges(K4)
    with pytest.raises(ValueError):
        ScenarioConfig(topology=g, duration_ms=1000, relay_policy=RelayPolicy.FLOOD,
                       warmup_ms=1000)
    with pytest.raises(ValueError):
        ScenarioConfig(topology=g, duration_ms=1000, relay_policy=RelayPolicy.FLOOD,
                       warmup_ms=0, ledger_round_ms=0)
    with pytest.raises(ValueError):
        ScenarioConfig(topology=g, duration_ms=1000, relay_policy=RelayPolicy.FLOOD,
                       warmup_ms=0, message_sizes={MessageKind.TRANSACTION: 0})


# --- always-flood replay from per-origin templates ---------------------------------

def node_states(g):
    return {
        n: NodeState(n, g.neighbors(n), {p: g.edge_latency(n, p) for p in g.neighbors(n)},
                     ProtocolConfig())
        for n in g.nodes
    }


def test_template_is_first_receipt_tree():
    order, parent = engine._build_template(node_states(graph_from_edges(PATH3)), 0)
    assert order == [0, 1, 2]
    assert parent == {0: None, 1: 0, 2: 1}
    # Equal latencies on K4: duplicates arrive later than first receipts, no tie.
    order, parent = engine._build_template(node_states(graph_from_edges(K4)), 0)
    assert order == [0, 1, 2, 3]
    assert parent == {0: None, 1: 0, 2: 0, 3: 0}


def test_template_declines_exact_tie():
    # Node 2 of the 4-cycle gets both copies at 20 ms: order is up to the sequence.
    cycle = [(0, 1), (1, 2), (2, 3), (0, 3)]
    assert engine._build_template(node_states(graph_from_edges(cycle)), 0) is None


def test_replay_falls_back_when_rounding_ties_at_emission_time(monkeypatch):
    # At t=0 node 3's copy via node 2 (0.3 + 0.6) beats the one via node 1
    # (0.1 + 0.8) by one ulp; at t=1000 both land on 1000.9 and the event loop
    # takes node 1's, sent first. The round at 1000 must not use the template.
    g = load_topology("0 1 0.1\n1 3 0.8\n0 2 0.3\n2 3 0.6\n", {0})
    assert engine._build_template(node_states(g), 0)[1][3] == 2
    cfg = ScenarioConfig(topology=g, duration_ms=2000, relay_policy=RelayPolicy.FLOOD,
                         ledger_round_ms=1000, warmup_ms=0)
    replayed = export_csv(run_scenario(cfg))
    monkeypatch.setattr(engine, "_build_template", lambda nodes, origin: None)
    assert replayed == export_csv(run_scenario(cfg))


LEAF_LEAVES = (Disconnect(at_ms=15.0, node=2),)


@pytest.mark.parametrize("edges,disconnects,expected_in", [
    # the leaf's tree copy lands at 20 ms, after it left at 15
    (PATH3, LEAF_LEAVES, {1: 1}),
    # a disconnect that never happens must not hide the one that does
    (PATH3, (Disconnect(at_ms=float("nan"), node=1),) + LEAF_LEAVES, {1: 1}),
    # only the duplicate 1 -> 2 is late
    ([(0, 1), (0, 2), (1, 2)], LEAF_LEAVES, {1: 2, 2: 1}),
])
def test_replay_hands_flood_that_meets_disconnect_to_event_loop(edges, disconnects,
                                                                  expected_in):
    g = graph_from_edges(edges, validators={0})
    cfg = ScenarioConfig(topology=g, duration_ms=1000, relay_policy=RelayPolicy.FLOOD,
                         ledger_round_ms=1000, warmup_ms=0, disconnects=disconnects)
    assert in_by_node(run_scenario(cfg), MessageKind.VALIDATION) == expected_in


def draw_replay_scenario(data, st):
    """A small scenario mixing everything the replay must reproduce or hand
    back to the event loop: ties, disconnects, squelched kinds, bursts."""
    draw = data.draw
    n = draw(st.integers(3, 12))
    seed = draw(st.integers(0, 2**16))
    g = generate_topology(n, float(draw(st.integers(2, min(5, n - 1)))), 0.3,
                          draw(st.sampled_from([(20.0, 20.0), (5.0, 50.0), (10.0, 12.0)])),
                          seed=seed)
    # Edge lists: no latencies (all on the default), small integers (ties at
    # any t0), or tenths (sums that tie or not depending on t0's magnitude).
    latencies = draw(st.sampled_from(["generated", "default", "integer", "tenths"]))
    if latencies != "generated":
        rng = random.Random(seed)
        text = "".join(
            f"{u} {v}" + {"default": "", "integer": f" {rng.randint(1, 4)}",
                          "tenths": f" {rng.randint(1, 30) / 10}"}[latencies] + "\n"
            for u, v in sorted(g.edges)
        )
        g = load_topology(text, set(g.validator_set))
    duration = draw(st.integers(1000, 3000))
    bursts = tuple(
        TxBurst(start_ms=float(draw(st.integers(0, duration))),
                trackers=tuple(draw(st.lists(st.sampled_from(g.nodes), max_size=3))),
                count=draw(st.integers(0, 12)),
                rate_per_s=draw(st.sampled_from([0.0, 10.0, 100.0, 333.0])))
        for _ in range(draw(st.integers(0, 2)))
    )
    disconnects = tuple(
        Disconnect(at_ms=float(draw(st.integers(0, duration))),
                   node=draw(st.sampled_from(g.nodes)))
        for _ in range(draw(st.integers(0, 2)))
    )
    kinds = draw(st.sampled_from([
        frozenset({MessageKind.PROPOSAL}),
        frozenset({MessageKind.PROPOSAL, MessageKind.VALIDATION}),
    ]))
    protocol = ProtocolConfig(count_threshold=draw(st.integers(1, 3)),
                              max_selected=draw(st.integers(1, 3)),
                              squelch_base_ms=draw(st.integers(200, 2000)),
                              squelch_jitter_ms=draw(st.integers(0, 500)),
                              squelch_kinds=kinds)
    return ScenarioConfig(
        topology=g, duration_ms=duration,
        relay_policy=draw(st.sampled_from([RelayPolicy.FLOOD, RelayPolicy.SQUELCH])),
        ledger_round_ms=draw(st.integers(250, 1500)),
        proposals_per_round=draw(st.integers(0, 3)),
        tx_plan=bursts, protocol=protocol, seed=seed,
        warmup_ms=draw(st.integers(0, 500)), disconnects=disconnects,
    )


def test_replay_matches_event_loop(monkeypatch):
    """Counting always-flood messages from templates yields the same bytes as
    simulating every copy on the event heap."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, deadline=None, database=None,
                         derandomize=True,
                         suppress_health_check=[hypothesis.HealthCheck.too_slow])
    @hypothesis.given(st.data())
    def check(data):
        cfg = draw_replay_scenario(data, st)
        replayed = export_csv(run_scenario(cfg))
        with monkeypatch.context() as m:
            m.setattr(engine, "_build_template", lambda nodes, origin: None)
            simulated = export_csv(run_scenario(cfg))
        assert replayed == simulated

    check()


REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference_testbed.json"

# sha256 of export_csv for the reference testbed cut to 32 simulated seconds
# (rounds, and the first 200 transactions of the first burst). Any change is
# a change of the engine's or the metrics layer's output bytes.
PINNED_EXPORT_SHA256 = {
    (1, "flood"): "e83de0ffb234fd8aba8099299959853aa9d8454ffc0dca4ae2116bc1f9cd4710",
    (1, "squelch"): "6f1beac47127d3ae8cad8e8be8a6679c222d27ec952fea14c46f384c5b2b0cdd",
    (2, "flood"): "d9ad921083155b3e209f27fbc412e14ed9087c76ed449b6673782b9392c41398",
    (2, "squelch"): "9cbf0be242cfb30db0b11dbe6b454def57e934001211aad2ee1762d4fcf6b1da",
    (3, "flood"): "5aed6ab0dac765f3bf9901ab54ddbdc1a590d96171177b2f6bc1ec351f356c5c",
    (3, "squelch"): "601f101cfdbbc2a14fd120f779f392c59198b3496913dbf9d9b0a1e7c0ece00f",
}


@pytest.mark.parametrize("seed,policy", sorted(PINNED_EXPORT_SHA256))
def test_reference_export_csv_bytes_pinned(seed, policy):
    doc = validate_config(apply_overrides(
        json.loads(REFERENCE_CONFIG.read_text(encoding="utf-8")),
        ["scenario.duration_ms=32000", f"scenario.seed={seed}"],
    ))
    log = run_scenario(build_scenario(doc, relay_policy=RelayPolicy(policy)))
    digest = hashlib.sha256(export_csv(log).encode("utf-8")).hexdigest()
    assert digest == PINNED_EXPORT_SHA256[(seed, policy)]
