from __future__ import annotations

import dataclasses
import hashlib
import json
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
from squelchsim.metrics import export_csv
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


def test_template_is_first_receipt_tree():
    order, parent = engine._build_template(adjacency(graph_from_edges(PATH3)), 0)
    assert order == [0, 1, 2]
    assert parent == {0: None, 1: 0, 2: 1}
    # Equal latencies on K4: duplicates arrive later than first receipts, no tie.
    order, parent = engine._build_template(adjacency(graph_from_edges(K4)), 0)
    assert order == [0, 1, 2, 3]
    assert parent == {0: None, 1: 0, 2: 0, 3: 0}


def test_template_declines_exact_tie():
    # Node 2 of the 4-cycle gets both copies at 20 ms: order is up to the sequence.
    cycle = [(0, 1), (1, 2), (2, 3), (0, 3)]
    assert engine._build_template(adjacency(graph_from_edges(cycle)), 0) is None


def test_replay_falls_back_when_rounding_ties_at_emission_time(monkeypatch):
    # At t=0 node 3's copy via node 2 (0.3 + 0.6) beats the one via node 1
    # (0.1 + 0.8) by one ulp; at t=1000 both land on 1000.9 and the event loop
    # takes node 1's, sent first. The round at 1000 must not use the template.
    g = load_topology("0 1 0.1\n1 3 0.8\n0 2 0.3\n2 3 0.6\n", {0})
    assert engine._build_template(adjacency(g), 0)[1][3] == 2
    cfg = ScenarioConfig(topology=g, duration_ms=2000, relay_policy=RelayPolicy.FLOOD,
                         ledger_round_ms=1000, warmup_ms=0)
    replayed = export_csv(run_scenario(cfg))
    monkeypatch.setattr(engine, "_build_template", lambda nodes, origin: None)
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
    burst: slot expiry, reselection and uplink loss all run on the event loop."""
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
            total.counts[key] += n
        for key, n in part.duplicates.items():
            total.duplicates[key] += n
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
            m.setattr(engine, "_build_template", lambda adjacency, origin: None)
            simulated = export_csv(run_scenario(cfg))
        assert replayed == simulated

    check()


def short_squelch_scenario():
    """2-2.2 s squelches and 200 ms rounds on 14 nodes: slots reset between
    settled rounds, so a replay window must end at the first slot squelch
    expiry."""
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

    def counting_feed(*args):
        feeds[0] += 1
        return feed(*args)

    monkeypatch.setattr(engine, "on_validator_message", counting_feed)
    cfg = make_cfg()
    replayed = export_csv(run_scenario(cfg))
    replayed_feeds, feeds[0] = feeds[0], 0
    monkeypatch.setattr(engine, "_build_template", lambda adjacency, origin: None)
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
    monkeypatch.setattr(engine, "_build_template", lambda adjacency, origin: None)
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
            m.setattr(engine, "_build_template", lambda adjacency, origin: None)
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
    monkeypatch.setattr(engine, "_build_template", lambda adjacency, origin: None)
    assert replayed == export_csv(run_scenario(cfg))


def test_counting_rounds_never_feed_a_slot_on_the_heap(monkeypatch):
    """With a threshold of 10 copies and 2 squelchable copies per 1000 ms
    round, rounds 0-3 cannot fill any selection, so they all replay and no
    copy reaches `on_validator_message` before t = 4000 ms. Round 4 fills
    the selections on the event loop."""
    times = []
    feed = engine.on_validator_message

    def spy(slot, peer, now, protocol):
        times.append(now)
        return feed(slot, peer, now, protocol)

    monkeypatch.setattr(engine, "on_validator_message", spy)
    g = generate_topology(30, 6.0, 0.3, (5, 50), seed=1)
    cfg = ScenarioConfig(topology=g, duration_ms=6000, relay_policy=RelayPolicy.SQUELCH,
                         ledger_round_ms=1000, proposals_per_round=1,
                         protocol=ProtocolConfig(count_threshold=10), warmup_ms=0)
    run_scenario(cfg)
    assert times and min(times) >= 4000.0


# --- repeat replays counted from a template's offset summary -------------------

def two_pass(m):
    """Patch the engine so that every replay walks its template in two passes."""
    m.setattr(engine, "_offset_summary", lambda tmpl, adjacency, origin: None)


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
        m.setattr(engine, "_build_template", lambda adjacency, origin: None)
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
    summary = engine._offset_summary(engine._build_template(adj, 0), adj, 0)
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
