from __future__ import annotations

import random
import statistics
from collections import deque
from fractions import Fraction

import pytest

from squelchsim import topology
from squelchsim.topology import (
    EdgeListParseError,
    GraphStats,
    TopologyGraph,
    TopologyParameterError,
    UnknownNodeError,
    generate_topology,
    graph_stats,
    load_topology,
    to_edge_list_text,
)

K4_TEXT = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
PATH_TEXT = "0 1\n1 2\n"


# --- independent oracle -----------------------------------------------------
# Naive all-pairs BFS kept deliberately separate from the implementation:
# dict-of-sets adjacency, full distance lists, statistics.median.

def oracle_stats(graph: TopologyGraph):
    adj: dict[int, set[int]] = {n: set() for n in graph.nodes}
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)

    def bfs(src):
        dist = {src: 0}
        frontier = deque([src])
        while frontier:
            u = frontier.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    frontier.append(w)
        return dist

    comps = []
    left = set(graph.nodes)
    while left:
        src = min(left)
        comp = set(bfs(src))
        comps.append(comp)
        left -= comp
    comps.sort(key=lambda c: (-len(c), min(c)))
    giant = sorted(comps[0])

    if len(giant) < 2:
        return {
            "diameter": 0,
            "radius": 0,
            "avg_distance": 0.0,
            "median_distance": 0.0,
            "connected": len(giant) == len(graph.nodes),
            "giant": len(giant),
        }

    eccs = []
    pair_distances = []
    for i, src in enumerate(giant):
        dist = bfs(src)
        eccs.append(max(dist[m] for m in giant))
        for dst in giant[i + 1 :]:
            pair_distances.append(dist[dst])
    return {
        "diameter": max(eccs),
        "radius": min(eccs),
        "avg_distance": sum(pair_distances) / len(pair_distances),
        "median_distance": float(statistics.median(pair_distances)),
        "connected": len(giant) == len(graph.nodes),
        "giant": len(giant),
    }


def assert_matches_oracle(graph: TopologyGraph):
    stats = graph_stats(graph)
    expect = oracle_stats(graph)
    assert stats.diameter == expect["diameter"]
    assert stats.radius == expect["radius"]
    assert stats.avg_distance == pytest.approx(expect["avg_distance"], abs=1e-12)
    assert stats.median_distance == pytest.approx(expect["median_distance"], abs=1e-12)
    assert stats.connected == expect["connected"]
    assert stats.giant_component_size == expect["giant"]


# --- load_topology ----------------------------------------------------------

def test_load_small_graph():
    g = load_topology("0 1\n1 2", {0})
    assert g.node_count == 3
    assert g.edge_count == 2
    assert g.validator_set == {0}
    assert g.tracker_set == {1, 2}


def test_load_self_loop_rejected():
    with pytest.raises(EdgeListParseError) as exc:
        load_topology("0 0", set())
    assert exc.value.line_number == 1


def test_load_reports_line_number():
    with pytest.raises(EdgeListParseError) as exc:
        load_topology("0 1\n0 x\n", set())
    assert exc.value.line_number == 2
    assert "0 x" in str(exc.value)


def test_load_unknown_validator():
    with pytest.raises(UnknownNodeError):
        load_topology("0 1", {7})


def test_load_comments_latency_and_default():
    g = load_topology("# peers\n0 1 12.5\n\n1 2\n", set())
    assert g.edge_latency(0, 1) == 12.5
    assert g.edge_latency(2, 1) == 20.0


def test_load_duplicate_edge_rejected():
    with pytest.raises(EdgeListParseError) as exc:
        load_topology("0 1\n1 0 9\n", set())
    assert exc.value.line_number == 2


def test_load_negative_latency_rejected():
    with pytest.raises(EdgeListParseError):
        load_topology("0 1 -3", set())


@pytest.mark.parametrize("latency", ["nan", "inf", "1e400", "-inf"])
def test_load_non_finite_latency_rejected(latency):
    with pytest.raises(EdgeListParseError) as exc:
        load_topology(f"0 1 5\n1 2 {latency}\n", set())
    assert exc.value.line_number == 2
    with pytest.raises(EdgeListParseError) as exc:
        load_topology("0 1\n", set(), default_latency_ms=float(latency))
    assert exc.value.line_number == 1


def test_type_invariants_enforced():
    with pytest.raises(ValueError):
        TopologyGraph(
            nodes=(0, 1),
            edges=frozenset({(0, 1)}),
            latency_ms={(0, 1): 10.0},
            validator_set=frozenset({0, 1}),
            tracker_set=frozenset({1}),
        )
    for latency in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            TopologyGraph(nodes=(0, 1), edges=frozenset({(0, 1)}),
                          latency_ms={(0, 1): latency}, validator_set=frozenset({0}),
                          tracker_set=frozenset({1}))


# --- graph_stats ------------------------------------------------------------

def test_stats_complete_graph():
    s = graph_stats(load_topology(K4_TEXT, set()))
    assert (s.diameter, s.radius) == (1, 1)
    assert s.avg_distance == 1.0
    assert s.median_distance == 1.0
    assert s.avg_degree == 3.0
    assert s.max_degree == 3
    assert s.connected


def test_stats_path_graph():
    s = graph_stats(load_topology(PATH_TEXT, set()))
    assert (s.diameter, s.radius) == (2, 1)
    assert s.avg_distance == pytest.approx(4 / 3)
    assert s.avg_degree == pytest.approx(4 / 3)


def test_stats_empty_graph():
    g = TopologyGraph((), frozenset(), {}, frozenset(), frozenset())
    s = graph_stats(g)
    assert s == type(s)(0, 0, 0.0, 0.0, 0.0, 0, False, 0)


def test_stats_single_pair_disconnected():
    g = load_topology("0 1\n2 3\n3 4\n", set())
    s = graph_stats(g)
    assert not s.connected
    assert s.giant_component_size == 3
    assert s.diameter == 2  # computed on the 2-3-4 component
    assert_matches_oracle(g)


def test_stats_match_oracle_generated():
    g = generate_topology(50, 6.0, 0.2, (5, 20), seed=3)
    assert_matches_oracle(g)


@pytest.mark.parametrize("seed", range(8))
def test_stats_match_oracle_random(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 200)
    # random graph, sometimes disconnected on purpose
    density = rng.uniform(0.02, 0.2)
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.add((u, v))
    nodes_in_edges = {x for e in edges for x in e}
    if len(nodes_in_edges) < 2:
        pytest.skip("degenerate draw")
    g = TopologyGraph(
        nodes=tuple(sorted(nodes_in_edges)),
        edges=frozenset(edges),
        latency_ms={e: 1.0 for e in edges},
        validator_set=frozenset(),
        tracker_set=frozenset(nodes_in_edges),
    )
    assert_matches_oracle(g)


def random_components_graph(rng: random.Random) -> TopologyGraph:
    """Up to three equal-size groups of sparse, shuffled ids, each a random
    graph (a path through it half the time, so it is one component), plus
    the left-over ids as isolated nodes."""
    ids = rng.sample(range(10_000), rng.randint(2, 40))
    parts = rng.randint(1, 3)
    size = len(ids) // parts
    edges = set()
    for c in range(parts):
        group = ids[c * size : (c + 1) * size]
        pairs = [(u, v) for i, u in enumerate(group) for v in group[i + 1 :]]
        density = rng.uniform(0.05, 0.6)
        edges.update(p for p in pairs if rng.random() < density)
        if rng.random() < 0.5:
            edges.update(zip(group, group[1:]))
    edges = {(min(e), max(e)) for e in edges}
    return TopologyGraph(
        nodes=tuple(ids),
        edges=frozenset(edges),
        latency_ms=dict.fromkeys(edges, 1.0),
        validator_set=frozenset(),
        tracker_set=frozenset(ids),
    )


@pytest.mark.parametrize("block", [1, 3, 7, topology._BFS_BLOCK])
@pytest.mark.parametrize("seed", range(5))
def test_stats_match_oracle_across_source_blocks(block, seed, monkeypatch):
    # The bit-parallel BFS takes its sources in blocks; small blocks make
    # every graph here a multi-block run, including one-source blocks.
    monkeypatch.setattr(topology, "_BFS_BLOCK", block)
    rng = random.Random(seed)
    for _ in range(20):
        assert_matches_oracle(random_components_graph(rng))


@pytest.mark.parametrize("seed", range(6))
def test_radius_diameter_bounds(seed):
    g = generate_topology(30, 4.0, 0.2, (5, 20), seed=seed)
    s = graph_stats(g)
    assert s.connected
    assert s.radius <= s.diameter <= 2 * s.radius


def test_avg_degree_exact_rational():
    # The stored value is the unrounded quotient: bit-identical to 2|E|/N
    # and within one float ulp of the exact rational.
    g = generate_topology(31, 5.0, 0.2, (5, 20), seed=11)
    s = graph_stats(g)
    assert s.avg_degree == 2 * g.edge_count / g.node_count
    exact = Fraction(2 * g.edge_count, g.node_count)
    assert abs(Fraction(s.avg_degree) - exact) < Fraction(1, 10**12)


# --- generate_topology ------------------------------------------------------

def test_generate_complete_graph_forced():
    g = generate_topology(4, 3.0, 0.5, (10, 10), seed=1)
    assert g.edge_count == 6
    assert len(g.validator_set) == 2
    assert all(lat == 10.0 for lat in g.latency_ms.values())
    assert graph_stats(g).diameter == 1


def test_generate_postconditions_15_nodes():
    g = generate_topology(15, 5.0, 0.33, (5, 50), seed=42)
    assert g.is_connected()
    assert len(g.validator_set) == 5
    assert 4.5 <= 2 * g.edge_count / g.node_count <= 5.5
    assert all(5 <= lat <= 50 for lat in g.latency_ms.values())


def test_generate_deterministic():
    a = generate_topology(40, 6.0, 0.25, (5, 50), seed=9)
    b = generate_topology(40, 6.0, 0.25, (5, 50), seed=9)
    assert a.edges == b.edges
    assert a.latency_ms == b.latency_ms
    assert a.validator_set == b.validator_set
    c = generate_topology(40, 6.0, 0.25, (5, 50), seed=10)
    assert c.edges != a.edges


def test_generate_infeasible_parameters():
    with pytest.raises(TopologyParameterError):
        generate_topology(1, 1.0, 0.5, (5, 10), seed=0)
    with pytest.raises(TopologyParameterError):
        generate_topology(10, 0.5, 0.5, (5, 10), seed=0)  # cannot stay connected
    with pytest.raises(TopologyParameterError):
        generate_topology(10, 20.0, 0.5, (5, 10), seed=0)  # beyond complete graph
    with pytest.raises(TopologyParameterError):
        generate_topology(10, 4.0, 0.0, (5, 10), seed=0)
    with pytest.raises(TopologyParameterError):
        generate_topology(10, 4.0, 0.5, (0, 10), seed=0)


def test_generate_mainnet_scale_snapshot():
    # 892 nodes at the observed 20.62 average degree: 9197 edges, 152
    # validators at a 0.17 fraction, and a single-digit diameter.
    g = generate_topology(892, 20.62, 0.17, (5, 100), seed=7)
    assert g.edge_count == 9197
    assert len(g.validator_set) == 152
    assert 2 * g.edge_count / g.node_count == pytest.approx(20.62, abs=0.01)
    assert graph_stats(g) == GraphStats(
        diameter=4,
        radius=3,
        avg_distance=2.589774174228584,
        median_distance=3.0,
        avg_degree=2 * 9197 / 892,
        max_degree=25,
        connected=True,
        giant_component_size=892,
    )


def test_edge_list_round_trip():
    g = generate_topology(20, 5.0, 0.3, (5, 50), seed=4)
    g2 = load_topology(to_edge_list_text(g), set(g.validator_set))
    assert g2.edges == g.edges
    assert g2.latency_ms == g.latency_ms
    assert g2.validator_set == g.validator_set


# --- cross-check against networkx ---------------------------------------------

def networkx_stats(graph: TopologyGraph) -> dict:
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    g.add_nodes_from(graph.nodes)
    g.add_edges_from(graph.edges)
    # Largest component, ties broken by smallest member id (graph_stats' rule).
    giant = g.subgraph(max(nx.connected_components(g), key=lambda c: (len(c), -min(c))))
    members = sorted(giant)
    dist = dict(nx.all_pairs_shortest_path_length(giant))
    pairs = [dist[u][v] for i, u in enumerate(members) for v in members[i + 1:]]
    degrees = [d for _, d in g.degree()]
    return {
        "diameter": nx.diameter(giant),
        "radius": nx.radius(giant),
        "avg_distance": nx.average_shortest_path_length(giant),
        "median_distance": float(statistics.median(pairs)),
        "avg_degree": sum(degrees) / len(degrees),
        "max_degree": max(degrees),
        "connected": nx.is_connected(g),
        "giant_component_size": len(members),
    }


def assert_matches_networkx(graph: TopologyGraph):
    stats = graph_stats(graph)
    expect = networkx_stats(graph)
    for name, value in expect.items():
        assert getattr(stats, name) == pytest.approx(value, abs=1e-12), name


@pytest.mark.parametrize("seed", range(6))
def test_stats_match_networkx_random_connected(seed):
    # A random recursive tree plus random extra edges, on sparse shuffled ids.
    rng = random.Random(seed)
    n = rng.randint(3, 80)
    ids = rng.sample(range(3 * n), n)
    edges = {tuple(sorted((ids[i], ids[rng.randrange(i)]))) for i in range(1, n)}
    for _ in range(rng.randrange(2 * n)):
        edges.add(tuple(sorted(rng.sample(ids, 2))))
    text = "".join(f"{u} {v}\n" for u, v in sorted(edges))
    assert_matches_networkx(load_topology(text, set()))


def test_stats_match_networkx_generated():
    assert_matches_networkx(generate_topology(60, 6.0, 0.2, (5, 20), seed=11))


# Two 4-node components: a path (diameter 3) and a star (diameter 2).
PATH_ON = "{0} {1}\n{1} {2}\n{2} {3}\n"
STAR_ON = "{0} {1}\n{0} {2}\n{0} {3}\n"


@pytest.mark.parametrize("text,diameter", [
    (PATH_ON.format(1, 8, 3, 9) + STAR_ON.format(2, 4, 5, 6), 3),
    (PATH_ON.format(2, 8, 3, 9) + STAR_ON.format(4, 1, 5, 6), 2),
], ids=["path-holds-smallest-id", "star-holds-smallest-id"])
def test_stats_match_networkx_equal_size_components(text, diameter):
    graph = load_topology(text, set())
    stats = graph_stats(graph)
    assert not stats.connected and stats.giant_component_size == 4
    assert stats.diameter == diameter
    assert_matches_networkx(graph)


def test_stats_tie_rule_ignores_node_order():
    # Built by hand with unsorted nodes: the path 1-5-6-7 holds the smallest
    # id, so it is the giant component even though the star 2-{3,4,8} comes
    # first in `nodes`.
    edges = frozenset({(1, 5), (5, 6), (6, 7), (2, 3), (2, 4), (2, 8)})
    graph = TopologyGraph(
        nodes=(2, 3, 4, 8, 1, 5, 6, 7),
        edges=edges,
        latency_ms=dict.fromkeys(edges, 10.0),
        validator_set=frozenset({1}),
        tracker_set=frozenset({2, 3, 4, 5, 6, 7, 8}),
    )
    assert graph_stats(graph).diameter == 3
    assert_matches_networkx(graph)
