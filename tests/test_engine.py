from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import math
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
    relay_targets,
    run_scenario,
)
from squelchsim.messages import APPLICATION_KINDS, CONTROL_KINDS, MessageKind
from squelchsim.metrics import MetricsLog, export_csv
from squelchsim.squelch import ProtocolConfig
from squelchsim.topology import TopologyGraph, generate_topology, load_topology


def graph_from_edges(edge_list, validators=frozenset(), latency=10.0):
    edges = frozenset(tuple(sorted(e)) for e in edge_list)
    nodes = tuple(sorted({x for e in edges for x in e}))
    return TopologyGraph(
        nodes=nodes,
        latency_ms={e: latency for e in edges},
        validator_set=frozenset(validators),
    )


K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
PATH3 = [(0, 1), (1, 2)]
CYCLE4 = [(0, 1), (1, 2), (2, 3), (0, 3)]


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

SQUELCH_KINDS = ProtocolConfig().squelch_kinds


def make_node(node_id=0, neighbors=(1, 2, 3)):
    return NodeState(node_id, {p: 10.0 for p in neighbors})


def test_flood_excludes_sender():
    node = make_node()
    node.downlink = {2: 10_000.0}  # ignored: nothing is squelchable
    assert relay_targets(node, MessageKind.PROPOSAL, 1, 0.0, frozenset()) == [2, 3]


def test_flood_origin_sends_everywhere():
    node = make_node()
    assert relay_targets(node, MessageKind.PROPOSAL, None, 0.0, frozenset()) == [1, 2, 3]


def test_squelch_decision_without_squelches_equals_flood():
    node = make_node()
    assert (relay_targets(node, MessageKind.VALIDATION, 1, 0.0, SQUELCH_KINDS)
            == relay_targets(node, MessageKind.VALIDATION, 1, 0.0, frozenset()))


def test_squelch_decision_filters_squelched_peer():
    node = make_node()
    node.downlink = {2: 10_000.0}
    assert relay_targets(node, MessageKind.VALIDATION, 1, 0.0, SQUELCH_KINDS) == [3]


def test_squelch_decision_transactions_always_flood():
    node = make_node()
    node.downlink = {2: 10_000.0}
    assert relay_targets(node, MessageKind.TRANSACTION, 1, 0.0, SQUELCH_KINDS) == [2, 3]


def test_relay_targets_boundary_and_isolation():
    node = make_node()
    assert relay_targets(node, MessageKind.VALIDATION, None, 0.0, SQUELCH_KINDS) == [1, 2, 3]
    node.downlink = {2: 5000.0}
    assert relay_targets(node, MessageKind.VALIDATION, None, 4999.0, SQUELCH_KINDS) == [1, 3]
    # an expiry equal to now has elapsed
    assert relay_targets(node, MessageKind.VALIDATION, None, 5000.0, SQUELCH_KINDS) == [1, 2, 3]
    # a squelch lives on the node that received it, not on its neighbours
    assert relay_targets(make_node(), MessageKind.VALIDATION, None, 0.0,
                         SQUELCH_KINDS) == [1, 2, 3]
    node.downlink = {}
    assert relay_targets(node, MessageKind.VALIDATION, 1, 0.0, SQUELCH_KINDS) == [2, 3]


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


def test_squelch_of_disconnected_peer_expires_without_reset(monkeypatch):
    # Every node keeps validator 0 as its one relayer and squelches the other
    # two peers at t=20. Node 2 leaves at 1.5 s, before the squelches on it
    # expire at 3.02 s: they must go with it and never reset a slot.
    expired = []
    real = engine.on_squelch_expired

    def record(slot, peer, now):
        expired.append((slot.owner, peer))
        real(slot, peer, now)

    monkeypatch.setattr(engine, "on_squelch_expired", record)
    protocol = ProtocolConfig(count_threshold=1, max_selected=1,
                              squelch_base_ms=3000, squelch_jitter_ms=0)
    run_scenario(ScenarioConfig(
        topology=graph_from_edges(K4, validators={0}), duration_ms=6000,
        relay_policy=RelayPolicy.SQUELCH, warmup_ms=0, protocol=protocol,
        disconnects=(Disconnect(at_ms=1500.0, node=2),),
    ))
    assert (1, 3) in expired and (3, 1) in expired
    assert all(peer != 2 for _, peer in expired)


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


@pytest.mark.parametrize("tx_plan", [(), (TxBurst(start_ms=0.0, trackers=(1,), count=0),)])
def test_no_emitters_rejected(tx_plan):
    g = graph_from_edges(K4)  # no validators, and no burst sends anything
    with pytest.raises(ScenarioSetupError, match="nothing emits"):
        run_scenario(ScenarioConfig(topology=g, duration_ms=2000,
                                    relay_policy=RelayPolicy.FLOOD, warmup_ms=0,
                                    tx_plan=tx_plan))


def test_config_invariants():
    g = graph_from_edges(K4)
    with pytest.raises(ValueError):
        ScenarioConfig(topology=g, duration_ms=1000, relay_policy=RelayPolicy.FLOOD,
                       warmup_ms=1000)
    with pytest.raises(ValueError):
        ScenarioConfig(topology=g, duration_ms=1000, relay_policy=RelayPolicy.FLOOD,
                       warmup_ms=0, ledger_round_ms=0)
    for kind in MessageKind:
        with pytest.raises(ValueError):
            ScenarioConfig(topology=g, duration_ms=1000, relay_policy=RelayPolicy.FLOOD,
                           warmup_ms=0, message_sizes={kind: 0})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_burst_and_disconnect_times_rejected(value):
    # NaN passes a `< 0` test, and an infinite start or rate would drop the
    # burst or collapse it onto one instant.
    with pytest.raises(ValueError, match="finite"):
        TxBurst(start_ms=value, trackers=(), count=1)
    with pytest.raises(ValueError, match="finite"):
        TxBurst(start_ms=0.0, trackers=(), count=1, rate_per_s=value)
    with pytest.raises(ValueError, match="finite"):
        Disconnect(at_ms=value, node=0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["duration_ms", "warmup_ms", "ledger_round_ms"])
def test_non_finite_scenario_times_rejected(name, value):
    # A NaN duration ran and returned an empty log, a NaN warm-up excluded no
    # second, and a NaN or infinite round emitted a single round.
    times = {"duration_ms": 2000, "warmup_ms": 0, "ledger_round_ms": 1000, name: value}
    with pytest.raises(ValueError, match="finite"):
        ScenarioConfig(topology=graph_from_edges(K4), relay_policy=RelayPolicy.FLOOD, **times)


# --- always-flood replay from per-origin templates ---------------------------------

def adjacency(g):
    return {n: dict(g.neighbors(n)) for n in g.nodes}


def build_template(adj, origin):
    """(order, parent) of the template over `adj` built at t=0."""
    return engine._build_template(adj, origin, 0.0)[:2]


def test_template_is_first_receipt_tree():
    order, parent = build_template(adjacency(graph_from_edges(PATH3)), 0)
    assert order == [0, 1, 2]
    assert parent == {0: None, 1: 0, 2: 1}
    # Equal latencies on K4: duplicates arrive later than first receipts, no tie.
    order, parent = build_template(adjacency(graph_from_edges(K4)), 0)
    assert order == [0, 1, 2, 3]
    assert parent == {0: None, 1: 0, 2: 0, 3: 0}
    # Node 2 of the 4-cycle gets both copies at 20 ms: the insertion sequence
    # picks node 1's, sent first, and the tree is kept.
    order, parent = build_template(adjacency(graph_from_edges(CYCLE4)), 0)
    assert order == [0, 1, 3, 2]
    assert parent == {0: None, 1: 0, 3: 0, 2: 1}


def test_template_declines_exact_tie():
    # The 4-cycle's tied tree is kept, and the walk's strict-arrival check
    # declines it: node 3's copy reaches node 2 at 20 ms, not after it.
    adj = adjacency(graph_from_edges(CYCLE4))
    order, parent = build_template(adj, 0)
    log = MetricsLog(nodes=[0, 1, 2, 3])
    assert engine._walk([order, parent, None], adj, 0.0, math.inf, math.inf, log) is None
    # K4's duplicates all land at 20 ms, after every first receipt: walked.
    k4 = adjacency(graph_from_edges(K4))
    walked = engine._walk([*build_template(k4, 0), None], k4, 0.0, math.inf, math.inf, log)
    assert walked is not None and walked[0] == {0: 0.0, 1: 10.0, 2: 10.0, 3: 10.0}


def walks(monkeypatch):
    """Spy on `_walk`: a list that collects (t0, counted) per call."""
    calls = []
    walk = engine._walk

    def spy(tmpl, adjacency, t0, *args):
        walked = walk(tmpl, adjacency, t0, *args)
        calls.append((t0, walked is not None))
        return walked

    monkeypatch.setattr(engine, "_walk", spy)
    return calls


def test_tie_at_build_replays_where_rounding_breaks_it(monkeypatch):
    """Node 2 of this 4-cycle gets both copies at 0.1 + 0.3 = 0.2 + 0.2 =
    0.4 ms, and the insertion sequence picks node 1. At 1000 ms rounding
    puts node 1's copy (1000.1 + 0.3) strictly before node 3's (1000.2 +
    0.2), so the walk of the kept template is exact, and that round pops no
    application copy."""
    g = load_topology("0 1 0.1\n1 2 0.3\n0 3 0.2\n2 3 0.2\n", {0})
    _, parent, first = engine._build_template(adjacency(g), 0, 0.0)[:3]
    assert parent[2] == 1 and first[2] == 0.2 + 0.2
    assert (1000.0 + 0.1) + 0.3 < (1000.0 + 0.2) + 0.2
    calls = walks(monkeypatch)
    events = popped_events(monkeypatch)
    cfg = ScenarioConfig(topology=g, duration_ms=2000, relay_policy=RelayPolicy.FLOOD,
                         ledger_round_ms=1000, warmup_ms=0)
    replayed = export_csv(run_scenario(cfg))
    assert calls == [(1000.0, True)]
    assert engine._DELIVER_APP not in {code for _, code, _ in events}
    with monkeypatch.context() as m:
        m.setattr(engine, "_build_template", lambda *args: None)
        assert export_csv(run_scenario(cfg)) == replayed


def test_replay_falls_back_when_rounding_ties_at_emission_time(monkeypatch):
    # At t=0 node 3's copy via node 2 (0.3 + 0.6) beats the one via node 1
    # (0.1 + 0.8) by one ulp; at t=1000 both land on 1000.9 and the event loop
    # takes node 1's, sent first. The round at 1000 must not use the template.
    g = load_topology("0 1 0.1\n1 3 0.8\n0 2 0.3\n2 3 0.6\n", {0})
    assert build_template(adjacency(g), 0)[1][3] == 2
    cfg = ScenarioConfig(topology=g, duration_ms=2000, relay_policy=RelayPolicy.FLOOD,
                         ledger_round_ms=1000, warmup_ms=0)
    replayed = export_csv(run_scenario(cfg))
    monkeypatch.setattr(engine, "_build_template", lambda *args: None)
    assert replayed == export_csv(run_scenario(cfg))


LEAF_LEAVES = (Disconnect(at_ms=15.0, node=2),)


@pytest.mark.parametrize("edges,disconnects,expected_in", [
    # the leaf's tree copy lands at 20 ms, after it left at 15
    (PATH3, LEAF_LEAVES, {1: 1}),
    # a disconnect after the run ends must not hide the one within it
    (PATH3, (Disconnect(at_ms=5000.0, node=1),) + LEAF_LEAVES, {1: 1}),
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
    # Some disconnects fall on a whole second, a round boundary for rounds
    # that divide 1000 ms.
    disconnects = tuple(
        Disconnect(at_ms=float(draw(st.one_of(st.integers(0, duration),
                                              st.integers(0, duration // 1000).map(
                                                  lambda s: s * 1000)))),
                   node=draw(st.sampled_from(g.nodes)))
        for _ in range(draw(st.integers(0, 2)))
    )
    kinds = draw(st.sampled_from([
        frozenset({MessageKind.PROPOSAL}),
        frozenset({MessageKind.PROPOSAL, MessageKind.VALIDATION}),
        frozenset(APPLICATION_KINDS),
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
            m.setattr(engine, "_build_template", lambda *args: None)
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


def reference_scenario(seed, policy):
    doc = validate_config(apply_overrides(
        json.loads(REFERENCE_CONFIG.read_text(encoding="utf-8")),
        ["scenario.duration_ms=32000", f"scenario.seed={seed}"],
    ))
    return dataclasses.replace(build_scenario(doc), relay_policy=RelayPolicy(policy))


@pytest.mark.parametrize("seed,policy", sorted(PINNED_EXPORT_SHA256))
def test_reference_export_csv_bytes_pinned(seed, policy):
    log = run_scenario(reference_scenario(seed, policy))
    digest = hashlib.sha256(export_csv(log).encode("utf-8")).hexdigest()
    assert digest == PINNED_EXPORT_SHA256[(seed, policy)]


def churn_scenario(seed):
    """Squelch policy with 2-3 s squelches, two disconnects and a transaction
    burst: slot expiry, reselection and uplink loss."""
    g = generate_topology(25, 6.0, 0.3, (5, 50), seed=seed)
    protocol = ProtocolConfig(count_threshold=3, max_selected=2,
                              squelch_base_ms=2000, squelch_jitter_ms=1000)
    disconnects = (Disconnect(at_ms=6000.0, node=min(g.validator_set)),
                   Disconnect(at_ms=8500.0, node=min(g.tracker_set)))
    burst = TxBurst(start_ms=3000.0, trackers=(), count=60, rate_per_s=30.0)
    return ScenarioConfig(
        topology=g, duration_ms=12_000, relay_policy=RelayPolicy.SQUELCH,
        ledger_round_ms=500, proposals_per_round=2, tx_plan=(burst,),
        protocol=protocol, seed=seed, warmup_ms=2000, disconnects=disconnects,
    )


# sha256 of export_csv for `churn_scenario`, both arms. Unlike the reference
# pins above, these runs lose nodes mid-run and expire squelches repeatedly.
PINNED_CHURN_SHA256 = {
    (1, "flood"): "1087b723400005c1bf27215e961ac62a3bd79b575e5db34767acf8c19079e676",
    (1, "squelch"): "d07130b76ac0d3f6a46dc4f8004b33b447741f2fb32580ba1fd695874ca1d261",
    (2, "flood"): "fb9f6129b4a6ffcea089716a6e6f74c7854b67179576cf98d52174f4077d81b3",
    (2, "squelch"): "5251c83a3486866ae18e737891818667fcf7265ad368582cacb8f052e671b361",
    (3, "flood"): "f50aaa67b63fc139462c24e79d0cbbcbef423fde87a9bd1eb6a48a2cf72dee35",
    (3, "squelch"): "2ec6344be81f876e3f4e771d21586c3a7af213ab9b38d086874f5ce2382cd960",
}


@pytest.mark.parametrize("seed,policy", sorted(PINNED_CHURN_SHA256))
def test_churn_export_csv_bytes_pinned(seed, policy):
    cfg = dataclasses.replace(churn_scenario(seed), relay_policy=RelayPolicy(policy))
    digest = hashlib.sha256(export_csv(run_scenario(cfg)).encode("utf-8")).hexdigest()
    assert digest == PINNED_CHURN_SHA256[(seed, policy)]


@pytest.mark.parametrize("policy", list(RelayPolicy))
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_run_is_sum_of_single_origin_runs(seed, policy):
    """No origin's traffic depends on another's: a run's counts are the sums
    of one run per validator, each on the same graph with that validator
    alone, plus one run with no validators that carries the transactions."""
    g = generate_topology(20, 5.0, 0.3, (5, 50), seed=seed)
    tracker = min(g.tracker_set)
    cfg = ScenarioConfig(
        topology=g, duration_ms=8000, relay_policy=policy, ledger_round_ms=500,
        proposals_per_round=2, tx_plan=(TxBurst(1500.0, (tracker,), 40, 25.0),),
        protocol=ProtocolConfig(count_threshold=3, max_selected=2,
                                squelch_base_ms=1500, squelch_jitter_ms=1000),
        seed=seed, warmup_ms=1000,
        disconnects=(Disconnect(3000.0, min(g.validator_set)),
                     Disconnect(5000.0, tracker), Disconnect(6000.0, max(g.nodes))),
    )
    parts = [
        run_scenario(dataclasses.replace(
            cfg, topology=TopologyGraph(g.nodes, g.latency_ms, frozenset({v})), tx_plan=()))
        for v in sorted(g.validator_set)
    ]
    parts.append(run_scenario(dataclasses.replace(
        cfg, topology=TopologyGraph(g.nodes, g.latency_ms, frozenset()))))
    total = parts[0]
    for part in parts[1:]:
        for key, n in part.counts.items():
            total.add(*key, n)
        for key, n in part.duplicates.items():
            total.add(*key, "dup", n)
    assert export_csv(total) == export_csv(run_scenario(cfg))


def tie_scenario(seed):
    """Every edge on the 20 ms default latency, so arrivals tie and the order
    they pop in rests on the heap's insertion sequence alone; transactions are
    squelchable, so they run on the event loop too."""
    g0 = generate_topology(30, 6.0, 0.3, (5, 50), seed=seed)
    g = load_topology("".join(f"{u} {v}\n" for u, v in sorted(g0.edges)),
                      g0.validator_set)
    return ScenarioConfig(
        topology=g, duration_ms=8000, relay_policy=RelayPolicy.SQUELCH,
        ledger_round_ms=500, proposals_per_round=2,
        tx_plan=(TxBurst(1000.0, (), 40, 20.0),),
        protocol=ProtocolConfig(3, 2, 2000, 1000, APPLICATION_KINDS), seed=seed,
        warmup_ms=1000, disconnects=(Disconnect(4000.0, min(g.validator_set)),),
    )


# sha256 of export_csv for `tie_scenario`, both arms. The other pins use
# random float latencies, which almost never tie; these catch any change in
# the order events are pushed.
PINNED_TIE_SHA256 = {
    (1, "flood"): "55feec6f6dd241b65b1cf13c8909cfe17f724a86d29129b4cb222b9e79eaa7e9",
    (1, "squelch"): "c1d5c4e43a6d2e88c8919345d3aa66a17bd30c28605a512eb4b6058f04547100",
    (2, "flood"): "d28c148376e7914fd1847f1e80b58c33c5cf889601fb77110e94bacd23864982",
    (2, "squelch"): "7b3820809da4f0ab918e0a4e81b88ad899202795ed73b319ae2e25322aed8dcd",
    (3, "flood"): "bfe18bb76c2588043efb34125547276eae6dfdde9c27b842e01636fe9feb32db",
    (3, "squelch"): "3af40db25c2acb60f0bdfd1c0e1d267af0c192baf14cf8c268890a8084a172ce",
}


@pytest.mark.parametrize("seed,policy", sorted(PINNED_TIE_SHA256))
def test_tie_export_csv_bytes_pinned(seed, policy):
    cfg = dataclasses.replace(tie_scenario(seed), relay_policy=RelayPolicy(policy))
    digest = hashlib.sha256(export_csv(run_scenario(cfg)).encode("utf-8")).hexdigest()
    assert digest == PINNED_TIE_SHA256[(seed, policy)]


def hundred_node_scenario():
    """A 100-node squelch run (20 validators) with short squelches and three
    disconnects: a validator, a tracker, then another validator."""
    g = generate_topology(100, 8.0, 0.2, (5, 50), seed=1)
    first, second = sorted(g.validator_set)[:2]
    return ScenarioConfig(
        topology=g, duration_ms=10_000, relay_policy=RelayPolicy.SQUELCH,
        ledger_round_ms=1000, proposals_per_round=1,
        tx_plan=(TxBurst(2000.0, (), 50, 25.0),),
        protocol=ProtocolConfig(count_threshold=3, max_selected=2,
                                squelch_base_ms=2000, squelch_jitter_ms=1000),
        warmup_ms=1000,
        disconnects=(Disconnect(4000.0, first), Disconnect(6000.0, min(g.tracker_set)),
                     Disconnect(7500.0, second)),
    )


def test_hundred_node_squelch_export_csv_bytes_pinned():
    log = run_scenario(hundred_node_scenario())
    digest = hashlib.sha256(export_csv(log).encode("utf-8")).hexdigest()
    assert digest == "470df220cd260357ea96df81ea533972cfe275ab6fb3bd73c1a9263fad421c27"


# --- settled squelch rounds replayed from a pruned template --------------------

def draw_settling_scenario(data, st):
    """A squelch run whose squelches mostly outlast its 3-8 s window, so
    that selection settles, now and then with squelchable transactions, a
    transaction burst, short squelches or a late disconnect."""
    draw = data.draw
    n = draw(st.integers(5, 14))
    g = generate_topology(n, float(draw(st.integers(3, min(6, n - 1)))), 0.3, (5.0, 50.0),
                          seed=draw(st.integers(0, 2**16)))
    duration = draw(st.integers(3000, 8000))
    protocol = ProtocolConfig(count_threshold=draw(st.integers(1, 3)),
                              max_selected=draw(st.integers(1, 2)),
                              squelch_base_ms=draw(st.one_of(st.integers(20_000, 300_000),
                                                             st.integers(1000, 4000))),
                              squelch_jitter_ms=draw(st.integers(0, 500)),
                              squelch_kinds=draw(st.sampled_from([SQUELCH_KINDS,
                                                                  APPLICATION_KINDS])))
    bursts = tuple(TxBurst(float(draw(st.integers(0, duration))), (), draw(st.integers(1, 8)),
                           draw(st.sampled_from([0.0, 20.0])))
                   for _ in range(draw(st.integers(0, 1))))
    disconnects = tuple(Disconnect(float(draw(st.integers(duration // 2, duration))),
                                   draw(st.sampled_from(g.nodes)))
                        for _ in range(draw(st.integers(0, 1))))
    return ScenarioConfig(
        topology=g, duration_ms=duration, relay_policy=RelayPolicy.SQUELCH,
        # Rounds shorter than a flood emit while copies are still in flight.
        ledger_round_ms=draw(st.one_of(st.integers(30, 200), st.integers(250, 1000))),
        proposals_per_round=draw(st.integers(0, 3)), tx_plan=bursts, protocol=protocol,
        warmup_ms=0, disconnects=disconnects,
    )


def test_settled_squelch_replay_matches_event_loop_on_random_scenarios(monkeypatch):
    """Replaying settled squelch rounds yields the same bytes as simulating
    every copy on the event heap."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=10, deadline=None, database=None,
                         derandomize=True,
                         suppress_health_check=[hypothesis.HealthCheck.too_slow])
    @hypothesis.given(st.data())
    def check(data):
        cfg = draw_settling_scenario(data, st)
        replayed = export_csv(run_scenario(cfg))
        with monkeypatch.context() as m:
            m.setattr(engine, "_build_template", lambda *args: None)
            simulated = export_csv(run_scenario(cfg))
        assert replayed == simulated

    check()


def short_squelch_scenario():
    """2-2.2 s squelches and 200 ms rounds on 14 nodes: slots reset between
    settled rounds, so a kept round's window must end at the first slot
    squelch expiry, and later rounds take expiries inside their floods."""
    return ScenarioConfig(
        topology=generate_topology(14, 6.0, 0.3, (5.0, 50.0), seed=2), duration_ms=8000,
        relay_policy=RelayPolicy.SQUELCH, ledger_round_ms=200, proposals_per_round=0,
        protocol=ProtocolConfig(count_threshold=1, max_selected=2, squelch_base_ms=2000,
                                squelch_jitter_ms=200),
        warmup_ms=0)


@pytest.mark.parametrize("make_cfg", [lambda: reference_scenario(1, "squelch"),
                                      hundred_node_scenario, short_squelch_scenario],
                         ids=["reference", "hundred_node", "short_squelch"])
def test_settled_squelch_replay_matches_event_loop(monkeypatch, make_cfg):
    """Same bytes with and without the template paths, and the steady path
    did replay: a copy counted off the heap is never fed to a slot, so the
    replayed run feeds fewer (transactions never feed a slot here)."""
    feeds = [0]
    feed = engine.on_validator_message

    def counting_feed(*args, **kwargs):
        feeds[0] += 1
        return feed(*args, **kwargs)

    monkeypatch.setattr(engine, "on_validator_message", counting_feed)
    cfg = make_cfg()
    replayed = export_csv(run_scenario(cfg))
    replayed_feeds, feeds[0] = feeds[0], 0
    monkeypatch.setattr(engine, "_build_template", lambda *args: None)
    assert export_csv(run_scenario(cfg)) == replayed
    assert replayed_feeds < feeds[0]


@pytest.mark.parametrize("nodes,degree,max_selected,exact", [
    # Sparse: a node can be the first sender of a peer it selected, and then
    # gets no copy back from that peer.
    (30, 6.0, 2, False),
    (24, 10.0, 2, True),
])
def test_settled_squelch_deliveries_per_message_oracle(monkeypatch, nodes, degree,
                                                       max_selected, exact):
    """With no expiry and no disconnect in the window, once selection has
    settled every node takes each squelchable message from its selected peers
    only: at most N x max_selected deliveries per message, and exactly that
    on this dense graph. The event loop runs every copy, so the check does
    not depend on the replay."""
    monkeypatch.setattr(engine, "_build_template", lambda *args: None)
    g = generate_topology(nodes, degree, 0.1, (5, 50), seed=1)
    cfg = ScenarioConfig(topology=g, duration_ms=8000, relay_policy=RelayPolicy.SQUELCH,
                         ledger_round_ms=1000, warmup_ms=0,
                         protocol=ProtocolConfig(count_threshold=3, max_selected=max_selected))
    log = run_scenario(cfg)
    # One round per second, each flood done within its second, so a steady
    # second holds one round: a proposal and a validation per validator.
    last_squelch = max(s for (_, s, k, d) in log.counts if k is MessageKind.SQUELCH)
    steady = range(last_squelch + 1, cfg.duration_ms // 1000)
    assert len(steady) >= 4
    bound = 2 * len(g.validator_set) * nodes * max_selected
    for second in steady:
        delivered = sum(n for (_, s, k, d), n in log.counts.items()
                        if s == second and d == "in" and k in SQUELCH_KINDS)
        assert delivered <= bound
        if exact:
            assert delivered == bound


# --- counting rounds replayed when no selection can fill -----------------------

def draw_counting_scenario(data, st):
    """A squelch run that spends many rounds counting: thresholds of 2-12
    copies against 1-4 squelchable copies per round, rounds shorter and
    longer than a flood, short squelches that reset slots, now and then a
    squelchable transaction burst or a late disconnect."""
    draw = data.draw
    n = draw(st.integers(4, 14))
    g = generate_topology(n, float(draw(st.integers(2, min(6, n - 1)))), 0.5,
                          draw(st.sampled_from([(5.0, 50.0), (10.0, 12.0)])),
                          seed=draw(st.integers(0, 2**16)))
    duration = draw(st.integers(1000, 6000))
    protocol = ProtocolConfig(count_threshold=draw(st.integers(2, 12)),
                              max_selected=draw(st.integers(1, 3)),
                              squelch_base_ms=draw(st.one_of(st.integers(200, 3000),
                                                             st.integers(20_000, 300_000))),
                              squelch_jitter_ms=draw(st.integers(0, 1000)),
                              squelch_kinds=draw(st.sampled_from([SQUELCH_KINDS,
                                                                  APPLICATION_KINDS])))
    bursts = tuple(TxBurst(float(draw(st.integers(0, duration))), (), draw(st.integers(1, 8)),
                           draw(st.sampled_from([0.0, 20.0, 333.0])))
                   for _ in range(draw(st.integers(0, 1))))
    disconnects = tuple(Disconnect(float(draw(st.integers(duration // 2, duration))),
                                   draw(st.sampled_from(g.nodes)))
                        for _ in range(draw(st.integers(0, 1))))
    return ScenarioConfig(
        topology=g, duration_ms=duration, relay_policy=RelayPolicy.SQUELCH,
        ledger_round_ms=draw(st.one_of(st.integers(30, 200), st.integers(250, 1500))),
        proposals_per_round=draw(st.integers(0, 3)), tx_plan=bursts, protocol=protocol,
        warmup_ms=0, disconnects=disconnects,
    )


def test_counting_replay_matches_event_loop_on_random_scenarios(monkeypatch):
    """Replaying counting rounds, and applying their copies to the slots at
    the emission, yields the same bytes as simulating every copy."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, database=None,
                         derandomize=True,
                         suppress_health_check=[hypothesis.HealthCheck.too_slow])
    @hypothesis.given(st.data())
    def check(data):
        cfg = draw_counting_scenario(data, st)
        replayed = export_csv(run_scenario(cfg))
        with monkeypatch.context() as m:
            m.setattr(engine, "_build_template", lambda *args: None)
            simulated = export_csv(run_scenario(cfg))
        assert replayed == simulated

    check()


def test_counting_replay_window_ends_at_next_round(monkeypatch):
    """35 ms rounds on 5 nodes, shorter than a flood: a counting round's
    copies still arrive after the next round's emission, which is not on the
    heap while the round is replayed. The replay must not count past it.
    This is the differential script's scenario 121 without its bursts and
    disconnects."""
    g = generate_topology(5, 2.0, 0.8, (5.0, 50.0), seed=121)
    cfg = ScenarioConfig(topology=g, duration_ms=1000, relay_policy=RelayPolicy.SQUELCH,
                         ledger_round_ms=35, proposals_per_round=1,
                         protocol=ProtocolConfig(count_threshold=4, max_selected=1,
                                                 squelch_base_ms=244_020,
                                                 squelch_jitter_ms=138_869,
                                                 squelch_kinds=APPLICATION_KINDS),
                         seed=121, warmup_ms=0)
    replayed = export_csv(run_scenario(cfg))
    monkeypatch.setattr(engine, "_build_template", lambda *args: None)
    assert replayed == export_csv(run_scenario(cfg))


def test_counting_rounds_never_feed_a_slot_on_the_heap(monkeypatch):
    """With a threshold of 10 copies and 2 squelchable copies per 1000 ms
    round, rounds 0-3 cannot fill any selection, so they all replay and no
    copy reaches `on_validator_message` before t = 4000 ms. Round 4 fills
    the selections, feeding the copies of its slots."""
    times = []
    feed = engine.on_validator_message

    def spy(slot, peer, now, protocol, copies=1):
        times.append(now)
        return feed(slot, peer, now, protocol, copies)

    monkeypatch.setattr(engine, "on_validator_message", spy)
    g = generate_topology(30, 6.0, 0.3, (5, 50), seed=1)
    cfg = ScenarioConfig(topology=g, duration_ms=6000, relay_policy=RelayPolicy.SQUELCH,
                         ledger_round_ms=1000, proposals_per_round=1,
                         protocol=ProtocolConfig(count_threshold=10), warmup_ms=0)
    run_scenario(cfg)
    assert times and min(times) >= 4000.0


def test_counting_rounds_with_tied_duplicates_replay(monkeypatch):
    """Node 3 takes duplicates from nodes 1 and 2 at once, 2 ms after its
    first copy. Rounds 0-3 cannot fill any selection (2 copies per round
    against a threshold of 10), so the order of those copies decides
    nothing: they replay, and no application copy is popped before
    t = 4000 ms. Only a slot that may act needs its copies in one order."""
    events = popped_events(monkeypatch)
    g = load_topology("0 1 1\n0 2 1\n0 3 1\n1 2 5\n1 3 2\n2 3 2\n", {0})
    cfg = ScenarioConfig(topology=g, duration_ms=6000, relay_policy=RelayPolicy.SQUELCH,
                         ledger_round_ms=1000, proposals_per_round=1,
                         protocol=ProtocolConfig(count_threshold=10), warmup_ms=0)
    run_scenario(cfg)
    assert not [e for e in events if e[0] < 4000 and e[1] == engine._DELIVER_APP]
    assert_same_bytes_as_event_loop(monkeypatch, cfg)


# --- repeat replays counted from a template's offset summary -------------------

def two_pass(m):
    """Patch the engine so that every replay walks its template in two passes."""
    m.setattr(engine, "_offset_summary", lambda *args: None)


def test_offset_replay_matches_two_pass(monkeypatch):
    """Counting repeat replays from offset summaries yields the same bytes as
    walking every send of the template."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, database=None,
                         derandomize=True,
                         suppress_health_check=[hypothesis.HealthCheck.too_slow])
    @hypothesis.given(st.data())
    def check(data):
        cfg = draw_replay_scenario(data, st)
        summarized = export_csv(run_scenario(cfg))
        with monkeypatch.context() as m:
            two_pass(m)
            assert export_csv(run_scenario(cfg)) == summarized

    check()


def offset_replays(monkeypatch):
    """Spy on `_offset_replay`: a list that collects (t0, counted) per call."""
    calls = []
    replay = engine._offset_replay

    def spy(summary, t0, *args):
        counted = replay(summary, t0, *args)
        calls.append((t0, counted))
        return counted

    monkeypatch.setattr(engine, "_offset_replay", spy)
    return calls


def assert_same_bytes_on_every_path(monkeypatch, cfg):
    """`cfg` gives the same bytes from summaries, in two passes and on the
    event loop; returns the offset replays of the first run."""
    calls = offset_replays(monkeypatch)
    summarized = export_csv(run_scenario(cfg))
    with monkeypatch.context() as m:
        two_pass(m)
        assert export_csv(run_scenario(cfg)) == summarized
        m.setattr(engine, "_build_template", lambda *args: None)
        assert export_csv(run_scenario(cfg)) == summarized
    return calls


# Integer-latency triangle: 0 reaches 1 at 10 ms and 2 at 15 ms; the duplicates
# 1 -> 2 and 2 -> 1 land at 20 and 25 ms.
TRIANGLE = "0 1 10\n1 2 10\n0 2 15\n"


def test_offset_replay_falls_back_on_slack(monkeypatch):
    """The one-ulp graph: node 3's duplicate lands one ulp after its first
    copy at t=0, inside the margin, so no emission counts from the summary."""
    g = load_topology("0 1 0.1\n1 3 0.8\n0 2 0.3\n2 3 0.6\n", {0})
    adj = adjacency(g)
    summary = engine._offset_summary(build_template(adj, 0), adj, 0,
                                     MetricsLog(nodes=g.nodes).index)
    assert 0 < summary.slack <= 2 * summary.margin(3000)
    cfg = ScenarioConfig(topology=g, duration_ms=3000, relay_policy=RelayPolicy.FLOOD,
                         ledger_round_ms=1000, warmup_ms=0)
    # The first replay, at t=0, builds no summary.
    assert assert_same_bytes_on_every_path(monkeypatch, cfg) == [(1000.0, False),
                                                                 (2000.0, False)]


def test_offset_replay_falls_back_on_whole_second(monkeypatch):
    """990 ms rounds: the round at 990 ms has an arrival at exactly 1000 ms
    and the one at 1980 ms at 2000 ms, so both walk in two passes; the round
    at 2970 ms stays within its second and counts from the summary."""
    cfg = ScenarioConfig(topology=load_topology(TRIANGLE, {0}), duration_ms=3000,
                         relay_policy=RelayPolicy.FLOOD, ledger_round_ms=990, warmup_ms=0)
    assert assert_same_bytes_on_every_path(monkeypatch, cfg) == [(990.0, False),
                                                                 (1980.0, False),
                                                                 (2970.0, True)]


def test_offset_replay_walks_a_flood_that_crosses_a_second(monkeypatch):
    """982 ms rounds: the round at 982 ms has arrivals from 992 to 1007 ms,
    on both sides of 1000 ms, so it walks in two passes even though no
    arrival is near the boundary; the rounds at 1964 and 2946 ms stay
    within their seconds and count from the summary."""
    cfg = ScenarioConfig(topology=load_topology(TRIANGLE, {0}), duration_ms=3000,
                         relay_policy=RelayPolicy.FLOOD, ledger_round_ms=982, warmup_ms=0)
    assert assert_same_bytes_on_every_path(monkeypatch, cfg) == [(982.0, False),
                                                                 (1964.0, True),
                                                                 (2946.0, True)]
    digest = hashlib.sha256(export_csv(run_scenario(cfg)).encode("utf-8")).hexdigest()
    assert digest.startswith("ea0eec57ff4e")


def test_offset_replay_falls_back_near_horizon(monkeypatch):
    """The round at 2000 ms of a 2010 ms run has arrivals past the end, up
    to 25 ms after its emission, so it walks in two passes."""
    cfg = ScenarioConfig(topology=load_topology(TRIANGLE, {0}), duration_ms=2010,
                         relay_policy=RelayPolicy.FLOOD, ledger_round_ms=1000, warmup_ms=0)
    assert assert_same_bytes_on_every_path(monkeypatch, cfg) == [(1000.0, True),
                                                                 (2000.0, False)]


def test_reference_flood_arm_counts_from_summaries(monkeypatch):
    """The offset path carries the reference config's flood arm (seed 1, all
    120 s), so it cannot go dead without notice."""
    calls = offset_replays(monkeypatch)
    cfg = build_scenario(validate_config(json.loads(REFERENCE_CONFIG.read_text(encoding="utf-8"))))
    assert (cfg.seed, cfg.relay_policy) == (1, RelayPolicy.FLOOD)
    run_scenario(cfg)
    assert sum(counted for _, counted in calls) >= 1000


# --- repeat emissions deferred to the end of the run, as changes by second ------

def deferring_summary(totals):
    """An offset summary with `totals` whose every emission lands in its own
    second: depth 1, latest arrival offset 0 and no duplicate."""
    return engine._OffsetSummary(1, 0.0, math.inf, totals,
                                 collections.defaultdict(collections.Counter))


def test_steady_emitter_folds_to_two_changes():
    """A kind emitted once a second for 100 s folds to two nonzero changes:
    its copies and totals from the first second on, and minus them from the
    second after the last."""
    totals = ([0, 1], [1, 2], [2, 1])
    summary = deferring_summary(totals)
    kind = MessageKind.TRANSACTION
    for s in range(100):
        assert engine._offset_replay(summary, 1000.0 * s + 5, [(kind, 1)], 100_000.0, 100_000.0)
    changes = collections.defaultdict(dict)
    engine._fold_runs(changes, [(summary.totals, summary.pending)])
    assert changes == {kind: {0: [1, [0, 1], [1, 2], [2, 1]],
                              100: [-1, [0, -1], [-1, -2], [-2, -1]]}}


def test_deferred_runs_add_what_each_emission_adds():
    """Folded and swept at the end, the pending changes of two templates of
    one kind, both emitting in one second, and emissions in the run's last
    second add to each row what adding every emission's totals at once
    adds, and create no row past the last emission."""
    a = ([0, 1, 2], [1, 2, 3], [2, 1, 3])
    b = ([1, 0, 0], [1, 1, 0], [1, 0, 1])
    kind = MessageKind.VALIDATION
    emitted = [(a, 0, 1), (a, 1, 1), (a, 1, 1), (a, 2, 2), (a, 4, 1),
               (b, 1, 3), (b, 2, 3), (b, 3, 3), (b, 9, 1)]
    expected = MetricsLog(nodes=[10, 11, 12], duration_ms=10_000)
    for totals, s, copies in emitted:
        engine._add_vectors(expected, [(s, totals)], [(kind, copies)])
    log = MetricsLog(nodes=[10, 11, 12], duration_ms=10_000)
    deferred = []
    for totals in (a, b):
        summary = deferring_summary(totals)
        for t, s, copies in emitted:
            if t is totals:
                assert engine._offset_replay(summary, 1000.0 * s, [(kind, copies)],
                                             10_000.0, 10_000.0)
        deferred.append((summary.totals, summary.pending))
    changes = collections.defaultdict(dict)
    engine._fold_runs(changes, deferred)
    assert deferred == []
    engine._add_runs(log, changes)
    assert dict(log.rows) == dict(expected.rows)
    assert max(s for s, _ in log.rows) == 9
    assert a == ([0, 1, 2], [1, 2, 3], [2, 1, 3])  # the totals are never changed


def draw_dense_scenario(data, st):
    """A 4-12 s run whose origins emit many times per second: bursts of
    50-333 transactions per second from 1-3 trackers, 200-1000 ms rounds
    with 1-3 proposals, and 0-2 disconnects, under either policy."""
    draw = data.draw
    n = draw(st.integers(4, 10))
    seed = draw(st.integers(0, 2**16))
    g = generate_topology(n, float(draw(st.integers(2, min(5, n - 1)))), 0.3,
                          draw(st.sampled_from([(5.0, 50.0), (10.0, 12.0), (20.0, 20.0)])),
                          seed=seed)
    duration = draw(st.integers(4000, 12_000))
    bursts = tuple(
        TxBurst(start_ms=float(draw(st.integers(0, duration // 2))),
                trackers=tuple(draw(st.lists(st.sampled_from(g.nodes), min_size=1,
                                             max_size=3, unique=True))),
                count=draw(st.integers(20, 600)),
                rate_per_s=float(draw(st.integers(50, 333))))
        for _ in range(draw(st.integers(1, 2)))
    )
    disconnects = tuple(
        Disconnect(at_ms=float(draw(st.integers(0, duration))), node=draw(st.sampled_from(g.nodes)))
        for _ in range(draw(st.integers(0, 2)))
    )
    protocol = ProtocolConfig(count_threshold=draw(st.integers(1, 4)),
                              max_selected=draw(st.integers(1, 3)),
                              squelch_base_ms=draw(st.sampled_from([500, 3000, 300_000])),
                              squelch_jitter_ms=draw(st.integers(0, 500)),
                              squelch_kinds=draw(st.sampled_from([
                                  frozenset({MessageKind.PROPOSAL, MessageKind.VALIDATION}),
                                  frozenset(APPLICATION_KINDS)])))
    return ScenarioConfig(
        topology=g, duration_ms=duration,
        relay_policy=draw(st.sampled_from([RelayPolicy.FLOOD, RelayPolicy.SQUELCH])),
        ledger_round_ms=draw(st.integers(200, 1000)),
        proposals_per_round=draw(st.integers(1, 3)),
        tx_plan=bursts, protocol=protocol, seed=seed,
        warmup_ms=draw(st.integers(0, 1000)), disconnects=disconnects,
    )


def test_deferred_runs_match_two_pass_and_event_loop(monkeypatch):
    """Dense runs, whose offset-summary emissions are deferred to the end of
    the run as runs of seconds, give the same bytes as walking every replay
    in two passes and as the event loop."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, database=None,
                         derandomize=True,
                         suppress_health_check=[hypothesis.HealthCheck.too_slow])
    @hypothesis.given(st.data())
    def check(data):
        with monkeypatch.context() as m:
            assert_same_bytes_on_every_path(m, draw_dense_scenario(data, st))

    check()


def test_reference_flood_arm_defers_its_repeat_emissions(monkeypatch):
    """The reference config's flood arm (seed 1, all 120 s) defers 6930
    (kind, copies) records of its repeat emissions, which fold to 140 nonzero
    changes, so the deferred path cannot go dead, nor stop cancelling the
    changes of steady seconds, without notice."""
    records, changes = [], []
    replay, fold = engine._offset_replay, engine._fold_runs

    def replay_spy(summary, t0, batch, *args):
        counted = replay(summary, t0, batch, *args)
        if counted:
            records.extend(batch)
        return counted

    def fold_spy(folded, deferred):
        changes.extend(n for _, pending in deferred for at in pending.values()
                       for n in at.values() if n)
        return fold(folded, deferred)

    monkeypatch.setattr(engine, "_offset_replay", replay_spy)
    monkeypatch.setattr(engine, "_fold_runs", fold_spy)
    cfg = build_scenario(validate_config(json.loads(REFERENCE_CONFIG.read_text(encoding="utf-8"))))
    run_scenario(cfg)
    assert len(records) >= 1000
    assert 0 < 20 * len(changes) <= len(records)


# --- fill rounds replayed off the heap -----------------------------------------

def popped_events(monkeypatch):
    """Spy on the event loop's heap: a list that collects (at, code, kind)
    of every event popped."""
    events = []
    pop = engine.heappop

    def spy(heap):
        entry = pop(heap)
        if len(entry) == 7:  # not a template run's entry
            events.append((entry[0], entry[2], entry[4]))
        return entry

    monkeypatch.setattr(engine, "heappop", spy)
    return events


def assert_same_bytes_as_event_loop(monkeypatch, cfg):
    """`cfg` gives the same bytes as on the forced event loop; returns them."""
    replayed = export_csv(run_scenario(cfg))
    with monkeypatch.context() as m:
        m.setattr(engine, "_build_template", lambda *args: None)
        assert export_csv(run_scenario(cfg)) == replayed
    return replayed


def draw_fill_scenario(data, st):
    """A squelch run whose rounds fill selections and squelch stragglers:
    thresholds of 1-12 copies, 1-4 selected peers, 0-3 proposals per
    250-1500 ms round, squelches of 200 ms-300 s and 0-3 disconnects, on
    generated latencies or small integers, which tie."""
    draw = data.draw
    n = draw(st.integers(4, 14))
    seed = draw(st.integers(0, 2**16))
    g = generate_topology(n, float(draw(st.integers(2, min(6, n - 1)))), 0.5,
                          draw(st.sampled_from([(5.0, 50.0), (10.0, 12.0)])), seed=seed)
    if draw(st.booleans()):
        rng = random.Random(seed)
        g = load_topology("".join(f"{u} {v} {rng.randint(1, 6)}\n" for u, v in sorted(g.edges)),
                          set(g.validator_set))
    duration = draw(st.integers(2000, 8000))
    protocol = ProtocolConfig(count_threshold=draw(st.integers(1, 12)),
                              max_selected=draw(st.integers(1, 4)),
                              squelch_base_ms=draw(st.one_of(st.integers(200, 3000),
                                                             st.integers(3000, 300_000))),
                              squelch_jitter_ms=draw(st.integers(0, 1000)),
                              squelch_kinds=draw(st.sampled_from([SQUELCH_KINDS,
                                                                  APPLICATION_KINDS])))
    disconnects = tuple(Disconnect(float(draw(st.integers(0, duration))),
                                   draw(st.sampled_from(g.nodes)))
                        for _ in range(draw(st.integers(0, 3))))
    return ScenarioConfig(
        topology=g, duration_ms=duration, relay_policy=RelayPolicy.SQUELCH,
        ledger_round_ms=draw(st.integers(250, 1500)),
        proposals_per_round=draw(st.integers(0, 3)), protocol=protocol,
        warmup_ms=0, disconnects=disconnects,
    )


def test_fill_replay_matches_event_loop_on_random_scenarios(monkeypatch):
    """Replaying the rounds in which slots act (fill and straggler rounds)
    yields the same bytes as simulating every copy."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, database=None,
                         derandomize=True,
                         suppress_health_check=[hypothesis.HealthCheck.too_slow])
    @hypothesis.given(st.data())
    def check(data):
        assert_same_bytes_as_event_loop(monkeypatch, draw_fill_scenario(data, st))

    check()


def test_fill_round_pops_no_control_message(monkeypatch):
    """With a threshold of 10 copies and 2 squelchable copies per 1000 ms
    round, round 4 fills the selections. It replays off the heap: its
    squelches are counted in second 4, yet no control message is popped."""
    events = popped_events(monkeypatch)
    g = generate_topology(30, 6.0, 0.3, (5, 50), seed=1)
    cfg = ScenarioConfig(topology=g, duration_ms=6000, relay_policy=RelayPolicy.SQUELCH,
                         ledger_round_ms=1000, proposals_per_round=1,
                         protocol=ProtocolConfig(count_threshold=10), warmup_ms=0)
    log = run_scenario(cfg)
    assert not [e for e in events if 4000 <= e[0] < 5000 and e[1] == engine._DELIVER_CTRL]
    assert sum(n for (_, s, k, d), n in log.counts.items()
               if s == 4 and k is MessageKind.SQUELCH and d == "in") > 0
    assert_same_bytes_as_event_loop(monkeypatch, cfg)


def test_fill_drops_a_send_that_a_squelch_reached_first(monkeypatch):
    """67 ms rounds, one selected peer. In the round at 2412 ms node 4
    squelches node 0, and the squelch reaches node 0 at about 2434.0 ms,
    0.6 ms before node 0's first copy: node 0 never sends that copy back to
    node 4, and the replayed round must not count or feed it."""
    cfg = ScenarioConfig(topology=generate_topology(7, 5.0, 0.2, (10.0, 12.0), seed=468),
                         duration_ms=2500, relay_policy=RelayPolicy.SQUELCH,
                         ledger_round_ms=67, proposals_per_round=2,
                         protocol=ProtocolConfig(count_threshold=4, max_selected=1,
                                                 squelch_base_ms=2108, squelch_jitter_ms=201),
                         warmup_ms=0)
    assert_same_bytes_as_event_loop(monkeypatch, cfg)


def test_fill_drops_a_send_in_its_own_arrival_second(monkeypatch):
    """83 ms rounds of one validation, one selected peer. Origin 3's round
    at 2988 ms fills the slots of nodes 0, 2, 4 and 6, and the squelches of
    2, 4 and 6 reach node 1 before its first copy at about 3022 ms. Node 1's
    sends to them would arrive at about 3032-3034 ms: each is subtracted in
    second 3, where the walk counted it, not in t0's second 2. The round
    replays, so it pops nothing but its emission and the next one."""
    events = popped_events(monkeypatch)
    cfg = ScenarioConfig(topology=generate_topology(7, 4.0, 0.2, (10.0, 12.0), seed=1477),
                         duration_ms=4239, relay_policy=RelayPolicy.SQUELCH,
                         ledger_round_ms=83, proposals_per_round=0,
                         protocol=ProtocolConfig(count_threshold=7, max_selected=1,
                                                 squelch_base_ms=1761, squelch_jitter_ms=282),
                         warmup_ms=0)
    run_scenario(cfg)
    assert sorted(cfg.topology.validator_set) == [3, 4]
    assert [(at, code) for at, code, _ in events if 2988.0 <= at <= 3071.0] == [
        (2988.0, engine._EMIT), (3071.0, engine._EMIT)] * 2
    assert_same_bytes_as_event_loop(monkeypatch, cfg)


def test_fill_falls_back_when_a_squelch_lands_at_a_first_receipt(monkeypatch):
    """Integer latencies, round at 2750 ms: node 3 fills its selection on
    its first copy at 2751 ms, and its squelch reaches node 1 at 2752 ms,
    when node 1's first copy arrives from node 2. Whether node 1 still sends
    the message to node 3 depends on the insertion sequence, so the round
    runs on the event loop."""
    events = popped_events(monkeypatch)
    g = load_topology("0 1 3\n0 2 1\n0 3 1\n1 2 1\n1 3 1\n2 3 1\n", {0})
    cfg = ScenarioConfig(topology=g, duration_ms=3000, relay_policy=RelayPolicy.SQUELCH,
                         ledger_round_ms=250, proposals_per_round=1,
                         protocol=ProtocolConfig(count_threshold=3, max_selected=1,
                                                 squelch_base_ms=1874, squelch_jitter_ms=163),
                         warmup_ms=0)
    run_scenario(cfg)
    assert (2752.0, engine._DELIVER_CTRL, MessageKind.SQUELCH) in events
    assert_same_bytes_as_event_loop(monkeypatch, cfg)


def test_fill_falls_back_when_two_nodes_act_at_once(monkeypatch):
    """Nodes 3 and 4 take their first copies at 15 ms and each other's
    duplicates at 22 ms, when both squelch the sender. Which squelch the
    event loop sends first is up to the insertion sequence, so round 0 runs
    on the event loop. Round 1, settled, replays."""
    events = popped_events(monkeypatch)
    g = load_topology("0 1 10\n0 2 10\n1 3 5\n2 4 5\n3 4 7\n", {0})
    cfg = ScenarioConfig(topology=g, duration_ms=2000, relay_policy=RelayPolicy.SQUELCH,
                         ledger_round_ms=1000, proposals_per_round=0,
                         protocol=ProtocolConfig(count_threshold=1, max_selected=1),
                         warmup_ms=0)
    run_scenario(cfg)
    assert [(at, code) for at, code, _ in events if at in (22.0, 29.0)] == [
        (22.0, engine._DELIVER_APP), (22.0, engine._DELIVER_APP),
        (29.0, engine._DELIVER_CTRL), (29.0, engine._DELIVER_CTRL)]
    assert [code for at, code, _ in events if at >= 1000.0] == [engine._EMIT]
    assert_same_bytes_as_event_loop(monkeypatch, cfg)


@pytest.mark.parametrize("edges,validators,duration,round_ms,proposals,protocol", [
    # Integer latencies: two senders' copies reach one node at once.
    ("0 1 1\n0 2 3\n0 3 1\n0 4 4\n1 2 4\n1 3 4\n1 4 6\n2 3 4\n2 4 2\n3 4 1\n",
     {0, 2, 3}, 2116, 500, 1,
     ProtocolConfig(count_threshold=1, max_selected=3, squelch_base_ms=2298,
                    squelch_jitter_ms=228)),
    # 7-10 ms squelches expire inside the flood of the round that sent them.
    ("0 1 29\n0 2 13\n0 3 17\n0 4 7\n1 2 10\n1 3 13\n2 4 20\n3 4 37\n",
     {0, 2, 3}, 3641, 1000, 0,
     ProtocolConfig(count_threshold=4, max_selected=2, squelch_base_ms=7,
                    squelch_jitter_ms=3)),
], ids=["two_senders_at_once", "squelch_expires_in_flood"])
def test_fill_fallbacks_match_event_loop(monkeypatch, edges, validators, duration,
                                         round_ms, proposals, protocol):
    cfg = ScenarioConfig(topology=load_topology(edges, validators), duration_ms=duration,
                         relay_policy=RelayPolicy.SQUELCH, ledger_round_ms=round_ms,
                         proposals_per_round=proposals, protocol=protocol, warmup_ms=0)
    assert_same_bytes_as_event_loop(monkeypatch, cfg)


# --- replay after a disconnect --------------------------------------------------

def disconnect_scenario(disconnects):
    """14 nodes, validators 0, 1, 2, 6 and 12; selections fill by the second
    round and their 5-7.5 min squelches outlast the 8 s run."""
    return ScenarioConfig(
        topology=generate_topology(14, 5.0, 0.3, (5.0, 50.0), seed=3), duration_ms=8000,
        relay_policy=RelayPolicy.SQUELCH, ledger_round_ms=1000, proposals_per_round=1,
        protocol=ProtocolConfig(count_threshold=2, max_selected=2), warmup_ms=0,
        disconnects=tuple(Disconnect(at, node) for at, node in disconnects))


@pytest.mark.parametrize("disconnects", [
    ((2500.0, 5), (4500.0, 5)),  # the second finds node 5 gone
    ((2500.0, 0),),  # an origin leaves
    ((3000.0, 5),),  # at a round's emission
], ids=["same_node_twice", "origin", "at_emission"])
def test_disconnect_edge_cases_match_event_loop(monkeypatch, disconnects):
    assert_same_bytes_as_event_loop(monkeypatch, disconnect_scenario(disconnects))


def test_disconnects_leave_the_graph_unchanged(monkeypatch):
    """Every origin's nodes share the graph's latency maps; a disconnect
    gives each neighbour of the leaving node a filtered copy. The graph
    keeps its maps, so a second run of the same config, on templates or on
    the event loop, gives the same bytes."""
    cfg = disconnect_scenario(((2500.0, 5), (3000.0, 0), (4500.0, 5)))
    before = {n: dict(cfg.topology.neighbors(n)) for n in cfg.topology.nodes}
    first = export_csv(run_scenario(cfg))
    assert {n: cfg.topology.neighbors(n) for n in cfg.topology.nodes} == before
    assert export_csv(run_scenario(cfg)) == first
    assert assert_same_bytes_as_event_loop(monkeypatch, cfg) == first
    assert {n: cfg.topology.neighbors(n) for n in cfg.topology.nodes} == before


def test_squelchable_round_after_a_disconnect_replays(monkeypatch):
    """Node 5 leaves at 2500 ms, and again at 4500 ms when it is already
    gone. The unsquelches of its neighbours go on the heap, but every round
    from 3000 ms on replays: no application copy is popped after 2500 ms."""
    events = popped_events(monkeypatch)
    run_scenario(disconnect_scenario(((2500.0, 5), (4500.0, 5))))
    after = [(code, kind) for at, code, kind in events if at > 2500.0]
    assert (engine._DELIVER_CTRL, MessageKind.UNSQUELCH) in after
    assert engine._DELIVER_APP not in {code for code, _ in after}


def test_quiet_round_ignores_the_squelches_of_a_node_that_left(monkeypatch):
    """The differential script's scenario 250: node 6 leaves at 2000 ms
    while its slot for validator 0 squelches node 4 until about 2979 ms.
    That expiry, like every event at a node that has left, is dropped
    unseen. The slot goes with the node, so no quiet window waits on the
    expiry once it has passed, and every squelchable copy replays."""
    events = popped_events(monkeypatch)
    cfg = ScenarioConfig(
        topology=generate_topology(10, 5.0, 0.2, (10.0, 12.0), seed=250), duration_ms=6760,
        relay_policy=RelayPolicy.SQUELCH, ledger_round_ms=1212, proposals_per_round=2,
        protocol=ProtocolConfig(count_threshold=2, max_selected=3, squelch_base_ms=2560,
                                squelch_jitter_ms=830,
                                squelch_kinds=frozenset({MessageKind.PROPOSAL})),
        seed=250, warmup_ms=109,
        disconnects=(Disconnect(1361.0, 5), Disconnect(2000.0, 6), Disconnect(4477.0, 9)))
    run_scenario(cfg)
    assert engine._DELIVER_APP not in {code for _, code, _ in events}
    assert_same_bytes_as_event_loop(monkeypatch, cfg)


# --- rounds that a squelch expiry cuts short, replayed off the heap ------------

def draw_wave_scenario(data, st):
    """A squelch run in which expiries keep cutting rounds short: squelches
    of 0.3-2.5 s whose jitter is shorter than the time a reset slot takes
    to count up to its threshold, so each slot's squelches expire close
    together, and a run long enough for two waves of expiries and
    reselection. Generated latencies or small integers, which tie, now and
    then squelchable transactions or a disconnect."""
    draw = data.draw
    n = draw(st.integers(4, 12))
    seed = draw(st.integers(0, 2**16))
    g = generate_topology(n, float(draw(st.integers(2, min(5, n - 1)))), 0.4,
                          draw(st.sampled_from([(5.0, 50.0), (10.0, 12.0)])), seed=seed)
    if draw(st.booleans()):
        rng = random.Random(seed)
        g = load_topology("".join(f"{u} {v} {rng.randint(1, 6)}\n" for u, v in sorted(g.edges)),
                          set(g.validator_set))
    round_ms = draw(st.integers(200, 1000))
    proposals = draw(st.integers(0, 2))
    threshold = draw(st.integers(1, 4))
    counting_ms = -(-threshold // (proposals + 1)) * round_ms
    base = draw(st.integers(300, 2500))
    jitter = draw(st.integers(0, counting_ms - 1))
    duration = 2 * (base + jitter + counting_ms) + round_ms
    protocol = ProtocolConfig(count_threshold=threshold, max_selected=draw(st.integers(1, 3)),
                              squelch_base_ms=base, squelch_jitter_ms=jitter,
                              squelch_kinds=draw(st.sampled_from([SQUELCH_KINDS,
                                                                  APPLICATION_KINDS])))
    bursts = tuple(TxBurst(float(draw(st.integers(0, duration))), (), draw(st.integers(1, 6)),
                           draw(st.sampled_from([0.0, 20.0])))
                   for _ in range(draw(st.integers(0, 1))))
    disconnects = tuple(Disconnect(float(draw(st.integers(0, duration))),
                                   draw(st.sampled_from(g.nodes)))
                        for _ in range(draw(st.integers(0, 1))))
    return ScenarioConfig(
        topology=g, duration_ms=duration, relay_policy=RelayPolicy.SQUELCH,
        ledger_round_ms=round_ms, proposals_per_round=proposals, tx_plan=bursts,
        protocol=protocol, warmup_ms=0, disconnects=disconnects,
    )


def test_expiry_waves_match_event_loop_on_random_scenarios(monkeypatch):
    """Replaying rounds that slot expiries and expired downlinks cut short
    yields the same bytes as simulating every copy."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, database=None,
                         derandomize=True,
                         suppress_health_check=[hypothesis.HealthCheck.too_slow])
    @hypothesis.given(st.data())
    def check(data):
        assert_same_bytes_as_event_loop(monkeypatch, draw_wave_scenario(data, st))

    check()


def slot_calls(monkeypatch):
    """Spy on the engine's `on_squelch_expired` and `on_validator_message`:
    a list that collects ("expired" or "fed", owner, origin, peer, now) of
    every call to either, in call order."""
    calls = []
    for name, tag in (("on_squelch_expired", "expired"), ("on_validator_message", "fed")):
        def spy(slot, peer, now, *args, tag=tag, real=getattr(engine, name), **kwargs):
            calls.append((tag, slot.owner, slot.origin_validator, peer, now))
            return real(slot, peer, now, *args, **kwargs)

        monkeypatch.setattr(engine, name, spy)
    return calls


def wave_scenario(disconnects=()):
    """6 nodes, validators 3 and 4, one validation per 1000 ms round, one
    selected peer after 2 copies, squelches of 1914-1961 ms: squelches
    expire two rounds after they were sent, inside the flood of that
    round."""
    return ScenarioConfig(
        topology=generate_topology(6, 4.0, 0.2, (5.0, 50.0), seed=1), duration_ms=6128,
        relay_policy=RelayPolicy.SQUELCH, ledger_round_ms=1000, proposals_per_round=0,
        protocol=ProtocolConfig(count_threshold=2, max_selected=1, squelch_base_ms=1914,
                                squelch_jitter_ms=48),
        warmup_ms=0, disconnects=disconnects)


def test_round_with_a_slot_expiry_in_its_flood_replays(monkeypatch):
    """In origin 2's round at 4000 ms, node 3 takes a copy at about
    4010.6 ms; its squelch of node 4 then expires at about 4012.5 ms and
    resets its slot, which counts the copies that reach it later in the same
    flood. The round replays with the expiry applied between those copies,
    and pops no application copy. Applying the reset before the round's
    first copy instead changes the bytes."""
    events = popped_events(monkeypatch)
    calls = slot_calls(monkeypatch)
    cfg = ScenarioConfig(
        topology=generate_topology(6, 3.0, 0.2, (5.0, 50.0), seed=21), duration_ms=5600,
        relay_policy=RelayPolicy.SQUELCH, ledger_round_ms=1000, proposals_per_round=1,
        protocol=ProtocolConfig(count_threshold=2, max_selected=1, squelch_base_ms=1872,
                                squelch_jitter_ms=51),
        warmup_ms=0)
    run_scenario(cfg)
    assert engine._DELIVER_APP not in {code for _, code, _ in events}
    at_3 = [(tag, peer, now) for tag, owner, origin, peer, now in calls
            if (owner, origin) == (3, 2) and 4000.0 < now < 5000.0]
    [x] = [now for tag, peer, now in at_3 if (tag, peer) == ("expired", 4)]
    copies = [now for tag, _, now in at_3 if tag == "fed"]
    assert min(copies) < x < max(copies)
    assert_same_bytes_as_event_loop(monkeypatch, cfg)


def test_round_with_an_expired_downlink_replays(monkeypatch):
    """Before origin 3's round at 3000 ms, node 1 squelched node 4 until
    about 3005.7 ms, when node 4's downlink squelch expires. Node 4's first
    copy of the round arrives after that, so node 4 sends it on to node 1
    as well, at about 3056.1 ms, as the event loop shows: a pruned link that
    the replay counts and feeds to node 1's slot, popping no application
    copy."""
    received = []
    real = engine.on_squelch_received

    def spy(downlink, peer, msg, now):
        received.append((peer, msg.origin_validator, now + msg.duration_ms))
        return real(downlink, peer, msg, now)

    monkeypatch.setattr(engine, "on_squelch_received", spy)
    deliveries = []
    pop = engine.heappop

    def delivery_spy(heap):
        entry = pop(heap)
        if len(entry) == 7 and entry[2] == engine._DELIVER_APP:
            deliveries.append((entry[0], entry[5], entry[3]))  # (at, sender, receiver)
        return entry

    with monkeypatch.context() as m:
        m.setattr(engine, "heappop", delivery_spy)
        m.setattr(engine, "_build_template", lambda *args: None)
        simulated = export_csv(run_scenario(wave_scenario()))
    assert [x for peer, origin, x in received if (peer, origin) == (1, 3) and 3000.0 < x < 3010.0]
    assert [at for at, sender, receiver in deliveries
            if (sender, receiver) == (4, 1) and 3050.0 < at < 3060.0]
    events = popped_events(monkeypatch)
    assert export_csv(run_scenario(wave_scenario())) == simulated
    assert engine._DELIVER_APP not in {code for _, code, _ in events}


def test_stale_expiry_in_a_round_is_consumed_without_reset(monkeypatch):
    """Node 3 leaves at 4182 ms. Node 1's slot for origin 4 had node 3
    selected, so it unsquelches its peers and resets: its squelch of node 4,
    due at about 6002.7 ms, is gone, and that expiry is stale. Origin 4's
    round at 6000 ms replays, consumes the stale expiry off the heap and
    resets nothing."""
    events = popped_events(monkeypatch)
    calls = slot_calls(monkeypatch)
    cfg = wave_scenario((Disconnect(4182.0, 3),))
    run_scenario(cfg)
    assert engine._DELIVER_APP not in {code for _, code, _ in events}
    [x] = [at for at, code, _ in events if code == engine._SQUELCH_EXPIRY and 6002 < at < 6003]
    assert ("expired", 1, 4, 4, x) not in calls
    assert_same_bytes_as_event_loop(monkeypatch, cfg)


def test_copy_at_an_expiry_replays_after_the_expiry(monkeypatch):
    """Integer latencies and 1991 ms squelches. In the round at 2000 ms,
    node 2's copy reaches node 3 at 2008 ms, exactly when node 3's squelch
    of node 4 expires. The expiry was pushed before the round's emission,
    so the event loop resets the slot first and then takes the copy; the
    replay does the same and pops no application copy."""
    events = popped_events(monkeypatch)
    calls = slot_calls(monkeypatch)
    g = load_topology("0 1 2\n0 2 5\n2 3 1\n2 4 4\n3 4 6\n", {1})
    cfg = ScenarioConfig(topology=g, duration_ms=5859, relay_policy=RelayPolicy.SQUELCH,
                         ledger_round_ms=1000, proposals_per_round=1,
                         protocol=ProtocolConfig(count_threshold=1, max_selected=1,
                                                 squelch_base_ms=1991, squelch_jitter_ms=0),
                         warmup_ms=0)
    expected = [("expired", 3, 1, 4, 2008.0), ("fed", 3, 1, 2, 2008.0)]
    with monkeypatch.context() as m:
        m.setattr(engine, "_build_template", lambda *args: None)
        run_scenario(cfg)
    assert [c for c in calls if c[1] == 3 and c[4] == 2008.0][:2] == expected
    calls.clear()
    events.clear()
    run_scenario(cfg)
    assert engine._DELIVER_APP not in {code for _, code, _ in events}
    assert [c for c in calls if c[1] == 3 and c[4] == 2008.0][:2] == expected
    assert_same_bytes_as_event_loop(monkeypatch, cfg)


def test_resquelched_link_sends_once_per_pending_expiry(monkeypatch):
    """Every squelch a slot sends goes out twice: to an even peer with the
    same duration, to an odd one 500 ms longer. So nodes take squelches on
    links whose last squelch is still pending, once with the same expiry
    and once with a new one, and node 3's leaving at 4182 ms makes a slot
    unsquelch links that it squelches again later (uplink loss). The
    pending-expiry heap then holds equal entries for one squelch and stale
    entries for lifted or renewed ones; each squelch may be sent on once,
    when it expires during a round's flood. The rounds replay with the same
    bytes as the event loop."""
    real = engine.on_validator_message

    def twice(slot, peer, now, config, copies=1):
        actions = []
        for q, ctrl in real(slot, peer, now, config, copies):
            actions.append((q, ctrl))
            if ctrl.kind is MessageKind.SQUELCH:
                actions.append((q, ctrl if q % 2 == 0 else dataclasses.replace(
                    ctrl, duration_ms=ctrl.duration_ms + 500)))
        return actions

    monkeypatch.setattr(engine, "on_validator_message", twice)
    # ("take", downlink, peer, expiry before, expiry after, now) per squelch
    # taken, ("lift", downlink, peer) per squelch lifted, in call order
    calls = []
    take, lift = engine.on_squelch_received, engine.on_unsquelch_received

    def take_spy(downlink, peer, msg, now):
        before = downlink.get(peer)
        take(downlink, peer, msg, now)
        calls.append(("take", downlink, peer, before, downlink[peer], now))

    def lift_spy(downlink, peer, msg):
        if peer in downlink:
            calls.append(("lift", downlink, peer))
        lift(downlink, peer, msg)

    monkeypatch.setattr(engine, "on_squelch_received", take_spy)
    monkeypatch.setattr(engine, "on_unsquelch_received", lift_spy)
    events = popped_events(monkeypatch)
    cfg = dataclasses.replace(wave_scenario((Disconnect(4182.0, 3),)), duration_ms=9000)
    replayed = export_csv(run_scenario(cfg))
    assert engine._DELIVER_APP not in {code for _, code, _ in events}
    renewed = [(c[3], c[4]) for c in calls if c[0] == "take" and c[3] is not None and c[3] > c[5]]
    assert any(before == after for before, after in renewed)
    assert any(before != after for before, after in renewed)
    # A link unsquelched and squelched again: the same downlink and peer.
    assert any(a[0] == "lift" and b[0] == "take" and a[1] is b[1] and a[2] == b[2]
               for i, a in enumerate(calls) for b in calls[i + 1:])
    with monkeypatch.context() as m:
        m.setattr(engine, "_build_template", lambda *args: None)
        assert export_csv(run_scenario(cfg)) == replayed


# --- one heap run per fresh template -------------------------------------------

@pytest.mark.parametrize("policy", list(RelayPolicy))
def test_one_emission_per_origin_builds_one_template(monkeypatch, policy):
    """Every validator emits one validation, and nothing else is emitted:
    each arm builds one template per origin, at its emission, and counts
    that emission over the built tree, with no second heap run; no
    application copy is popped."""
    built = []
    build = engine._build_template

    def spy(adjacency, origin, *args):
        built.append(origin)
        return build(adjacency, origin, *args)

    monkeypatch.setattr(engine, "_build_template", spy)
    events = popped_events(monkeypatch)
    g = generate_topology(40, 6.0, 0.3, (5.0, 50.0), seed=11)
    cfg = ScenarioConfig(topology=g, duration_ms=900, relay_policy=policy,
                         ledger_round_ms=1000, proposals_per_round=0, warmup_ms=0)
    replayed = export_csv(run_scenario(cfg))
    assert sorted(built) == sorted(g.validator_set)
    assert engine._DELIVER_APP not in {code for _, code, _ in events}
    with monkeypatch.context() as m:
        m.setattr(engine, "_build_template", lambda *args: None)
        assert export_csv(run_scenario(cfg)) == replayed


# --- a fresh template counted from its tree -------------------------------------

def test_tree_counts_equal_the_walk():
    """On random graphs, some with a node gone as after a disconnect, and
    random t0, the closed form's count vectors and sender lists equal the
    per-send walk's over the same tree, summed over its seconds, and so do
    the build's first receipts and latest arrival."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, database=None,
                         derandomize=True,
                         suppress_health_check=[hypothesis.HealthCheck.too_slow])
    @hypothesis.given(st.data())
    def check(data):
        draw = data.draw
        n = draw(st.integers(4, 30))
        g = generate_topology(n, float(draw(st.integers(2, min(8, n - 1)))), 0.3,
                              draw(st.sampled_from([(5.0, 50.0), (1.0, 2.0), (10.0, 12.0)])),
                              seed=draw(st.integers(0, 2**16)))
        adj = adjacency(g)
        origins = list(g.nodes)
        if draw(st.booleans()):
            gone = draw(st.sampled_from(g.nodes))
            for p in adj[gone]:
                adj[p] = {q: lat for q, lat in adj[p].items() if q != gone}
            origins.remove(gone)
        origin = draw(st.sampled_from(origins))
        t0 = draw(st.floats(0.0, 1e6))
        order, parent, first, latest = engine._build_template(adj, origin, t0)
        log = MetricsLog(nodes=g.nodes)
        fed_tree, fed_walk = {}, {n: [] for n in g.nodes}
        counts = engine._tree_counts(order, parent, adj, log.index, fed_tree)
        walked = engine._walk([order, parent, None], adj, t0, math.inf, math.inf, log,
                              fed_walk)
        if walked is None:  # tied: the walk rejects the tree, and the event loop counts it
            return
        assert walked[0] == first and walked[2] == latest
        assert list(counts) == [[sum(col) for col in zip(*(vectors[d] for vectors in
                                                          walked[1].values()))]
                                for d in range(3)]
        assert ({v: sorted(senders) for v, senders in fed_tree.items()}
                == {v: sorted(senders) for v, senders in fed_walk.items() if senders})
        if latest < 1000.0 * (int(t0 // 1000) + 1):
            assert dict(walked[1]) == {int(t0 // 1000): counts}

    check()


def build_counters(monkeypatch):
    """Spy on fresh template builds: a list that collects, per build, [t0,
    adjacency, counter], where counter names what counted the build's
    emission, "_tree_counts" or "_walk" ("pending" when neither did)."""
    builds = []
    build = engine._build_template

    def build_spy(adjacency, origin, t0):
        built = build(adjacency, origin, t0)
        builds.append([t0, adjacency, "pending"])
        return built

    def counter_spy(name):
        real = getattr(engine, name)

        def spy(*args):
            if builds and builds[-1][2] == "pending":
                builds[-1][2] = name
            return real(*args)
        return spy

    monkeypatch.setattr(engine, "_build_template", build_spy)
    for name in ("_tree_counts", "_walk"):
        monkeypatch.setattr(engine, name, counter_spy(name))
    return builds


@pytest.mark.parametrize("t0,duration,disconnects,counter", [
    # the flood lands in t0's second, before the end and any disconnect
    (100.0, 2000, (), "_tree_counts"),
    # t0 just below a whole second: the flood crosses it
    (985.0, 2000, (), "_walk"),
    # duration_ms inside the flood: the copies at 25 ms are not counted
    (0.0, 22, (), "_walk"),
    # a disconnect inside the flood: its horizon hands the emission to the event loop
    (0.0, 1000, (Disconnect(22.0, 2),), "_walk"),
])
def test_fresh_latency_map_build_counter(monkeypatch, t0, duration, disconnects, counter):
    """One transaction from node 0 of the triangle, whose flood lasts 25 ms:
    its template build is counted from the tree only when every send lands
    before t0's next whole second, the horizon and duration_ms."""
    builds = build_counters(monkeypatch)
    cfg = ScenarioConfig(topology=load_topology(TRIANGLE, set()), duration_ms=duration,
                         relay_policy=RelayPolicy.FLOOD, warmup_ms=0, disconnects=disconnects,
                         tx_plan=(TxBurst(start_ms=t0, trackers=(0,), count=1),))
    assert_same_bytes_as_event_loop(monkeypatch, cfg)
    assert [(at, how) for at, _, how in builds] == [(t0, counter)]


def test_tied_latency_map_build_counts_its_emission_from_the_tree(monkeypatch):
    """On the 4-cycle with equal latencies node 2 takes two copies at 20 ms,
    and the insertion sequence picks its parent: on the event loop as in the
    build, which follows the same peer order. So the emission the template
    is built at is counted from the tree. The template is kept: the emission
    at 1000 ms walks it, meets the tie and runs on the event loop."""
    builds = build_counters(monkeypatch)
    walked = walks(monkeypatch)
    events = popped_events(monkeypatch)
    cfg = ScenarioConfig(topology=graph_from_edges(CYCLE4, {0}),
                         duration_ms=2000, relay_policy=RelayPolicy.FLOOD,
                         ledger_round_ms=1000, warmup_ms=0)
    replayed = export_csv(run_scenario(cfg))
    assert [(at, how) for at, _, how in builds] == [(0.0, "_tree_counts")]
    assert walked == [(1000.0, False)]
    popped = [at for at, code, _ in events if code == engine._DELIVER_APP]
    assert popped and min(popped) >= 1000.0
    with monkeypatch.context() as m:
        m.setattr(engine, "_build_template", lambda *args: None)
        assert export_csv(run_scenario(cfg)) == replayed


def test_pruned_builds_are_walked(monkeypatch):
    """Rounds over a pruned adjacency, which is not symmetric, are counted
    send by send; the rounds over the latency maps from the tree."""
    builds = build_counters(monkeypatch)
    assert_same_bytes_as_event_loop(monkeypatch, wave_scenario())
    pruned = {how for _, adj, how in builds
              if any(u not in adj[w] for u in adj for w in adj[u])}
    assert pruned == {"_walk"}
    assert "_tree_counts" in {how for _, _, how in builds}


# --- counting rounds counted from the summary and owed to the slots ------------

def slot_reads(m):
    """Spy on the transitions that read a slot. Returns a function that
    gives a dict that maps (transition, owner, origin, peer, now) to the
    slot's state at the first such call: the counts of its unselected
    peers, selected, squelched, state and round index. Selected peers'
    counts are left out: nothing reads them, and a counting round replayed
    off the heap does not count them. A squelch round that falls back to the
    event loop has fed copies of slots that it throws away; the reads of the
    heap event whose emission then runs on the event loop are left out."""
    calls, fell_back, event = [], set(), [0]
    for name in ("on_validator_message", "on_squelch_expired", "on_uplink_lost"):
        def spy(slot, peer, now, *args, name=name, real=getattr(engine, name), **kwargs):
            calls.append((event[0], (name, slot.owner, slot.origin_validator, peer, now), (
                {u: n for u, n in slot.per_peer_count.items() if u not in slot.selected},
                set(slot.selected), dict(slot.squelched), slot.state, slot.round_index)))
            return real(slot, peer, now, *args, **kwargs)

        m.setattr(engine, name, spy)
    pop, targets = engine.heappop, engine.relay_targets

    def pop_spy(heap):
        entry = pop(heap)
        if len(entry) == 7:  # not a template run's or a pending-expiry entry
            event[0] += 1
        return entry

    def targets_spy(node, kind, arrived_from, now, squelch_kinds):
        if arrived_from is None and kind in squelch_kinds:
            fell_back.add(event[0])
        return targets(node, kind, arrived_from, now, squelch_kinds)

    m.setattr(engine, "heappop", pop_spy)
    m.setattr(engine, "relay_targets", targets_spy)

    def reads():
        first = {}
        for e, key, state in calls:
            if e not in fell_back:
                first.setdefault(key, state)
        return first

    return reads


def assert_slots_read_as_on_the_event_loop(monkeypatch, cfg):
    """`cfg` gives the same bytes as on the forced event loop, and every slot
    read of the replayed run sees the state that the event loop's run sees
    at that read; returns the replayed run's reads."""
    with monkeypatch.context() as m:
        replayed_reads = slot_reads(m)
        replayed = export_csv(run_scenario(cfg))
    with monkeypatch.context() as m:
        simulated_reads = slot_reads(m)
        m.setattr(engine, "_build_template", lambda *args: None)
        assert export_csv(run_scenario(cfg)) == replayed
    reads, simulated = replayed_reads(), simulated_reads()
    assert {key: simulated.get(key) for key in reads} == reads
    return reads


def owed_scenario(disconnects=()):
    """30 nodes, 1000 ms rounds with a proposal and a validation each and a
    threshold of 10 copies: round 0 builds the latency-map template, rounds
    1-3 count, and round 4 fills the selections. Rounds 2 and 3 are owed to
    the slots."""
    g = generate_topology(30, 6.0, 0.3, (5, 50), seed=1)
    return ScenarioConfig(topology=g, duration_ms=6000, relay_policy=RelayPolicy.SQUELCH,
                          ledger_round_ms=1000, proposals_per_round=1,
                          protocol=ProtocolConfig(count_threshold=10), warmup_ms=0,
                          disconnects=disconnects)


def walked_rounds(m):
    """Spy on `_walk`: a list that collects the t0 of every call."""
    walks = []
    walk = engine._walk

    def spy(tmpl, adjacency, t0, *args):
        walks.append(t0)
        return walk(tmpl, adjacency, t0, *args)

    m.setattr(engine, "_walk", spy)
    return walks


def test_rounds_over_a_kept_template_walk_nothing(monkeypatch):
    """Rounds 1-4 run over the latency maps' kept template, and each
    validator's flood lands in its second: they are counted from the
    template's offset summary, the fill round included, and walk nothing.
    Only the pruned rounds from second 5 on walk. In two passes rounds 1-4
    walk, with the same bytes."""
    cfg = owed_scenario()
    with monkeypatch.context() as m:
        walks = walked_rounds(m)
        summarized = export_csv(run_scenario(cfg))
    assert walks and min(walks) >= 5000.0
    with monkeypatch.context() as m:
        walks = walked_rounds(m)
        two_pass(m)
        assert export_csv(run_scenario(cfg)) == summarized
    assert {1000.0, 2000.0, 3000.0, 4000.0} <= set(walks)
    assert_same_bytes_as_event_loop(monkeypatch, cfg)


def test_owed_copies_are_counted_before_the_fill(monkeypatch):
    """The fill round's slots have counted 8 copies from each sender, 2 of
    them owed by each of rounds 2 and 3, as on the event loop."""
    reads = assert_slots_read_as_on_the_event_loop(monkeypatch, owed_scenario())
    fill = [counts for (name, _, _, _, now), (counts, *_) in reads.items()
            if name == "on_validator_message" and 4000.0 <= now < 5000.0]
    assert fill and 8 in {n for counts in fill for n in counts.values()}


def test_owed_copies_are_counted_before_an_uplink_loss(monkeypatch):
    """Node 3 leaves at 3500 ms, after owed rounds 2 and 3: its neighbours'
    slots read its loss with 8 copies counted from each sender, as on the
    event loop."""
    reads = assert_slots_read_as_on_the_event_loop(
        monkeypatch, owed_scenario((Disconnect(3500.0, 3),)))
    lost = [counts for (name, _, _, peer, now), (counts, *_) in reads.items()
            if name == "on_uplink_lost"]
    assert lost and 8 in {n for counts in lost for n in counts.values()}


def test_owed_copies_are_counted_before_a_fallback_emission(monkeypatch):
    """Node 3 leaves at 3010 ms, inside round 3's flood, which therefore
    runs on the event loop after owed round 2: its copies reach slots that
    have counted 6 copies from each sender, as on the event loop."""
    reads = assert_slots_read_as_on_the_event_loop(
        monkeypatch, owed_scenario((Disconnect(3010.0, 3),)))
    fallback = [counts for (name, _, _, _, now), (counts, *_) in reads.items()
                if name == "on_validator_message" and 3000.0 <= now < 3010.0]
    assert fallback and 6 in {n for counts in fallback for n in counts.values()}


def test_slots_read_what_the_event_loop_reads_on_random_scenarios(monkeypatch):
    """Every slot read, a copy, a slot expiry or an uplink loss, sees the
    same slot state whether rounds are counted from summaries and owed,
    replayed otherwise, or simulated copy by copy."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         derandomize=True,
                         suppress_health_check=[hypothesis.HealthCheck.too_slow])
    @hypothesis.given(st.data())
    def check(data):
        draw = data.draw(st.sampled_from([draw_counting_scenario, draw_wave_scenario,
                                          draw_fill_scenario]))
        assert_slots_read_as_on_the_event_loop(monkeypatch, draw(data, st))

    check()
