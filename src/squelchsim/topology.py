"""Peer graph construction, loading, and hop-distance characterization.

The graph under test is an undirected set of peer links with a fixed latency
per edge. Nodes are either validators (emit consensus messages) or trackers
(submit transactions); both relay. Distance metrics are hop counts, edge
latency is ignored by the statistics and only matters to the simulator.
"""

from __future__ import annotations

import math
import random
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

DEFAULT_EDGE_LATENCY_MS = 20.0


class EdgeListParseError(ValueError):
    """Malformed edge-list text; carries the 1-based offending line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class UnknownNodeError(ValueError):
    """A declared validator id does not appear in the graph."""


class TopologyParameterError(ValueError):
    """Generator parameters cannot produce a valid connected graph."""


@dataclass(frozen=True)
class TopologyGraph:
    """Immutable peer graph: nodes, undirected edges, per-edge latency.

    Edges are stored as (u, v) pairs with u < v. The latency map has exactly
    one positive, finite entry per edge. Validators and trackers partition
    the nodes.
    """

    nodes: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    latency_ms: dict[tuple[int, int], float]
    validator_set: frozenset[int]
    tracker_set: frozenset[int]
    _adjacency: dict[int, tuple[int, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ValueError("duplicate node ids")
        adjacency: dict[int, list[int]] = {n: [] for n in self.nodes}
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if u > v:
                raise ValueError(f"edge ({u}, {v}) not normalized as (min, max)")
            if u not in node_set or v not in node_set:
                raise ValueError(f"edge ({u}, {v}) references unknown node")
            adjacency[u].append(v)
            adjacency[v].append(u)
        if set(self.latency_ms) != set(self.edges):
            raise ValueError("latency map does not cover exactly the edge set")
        for edge, lat in self.latency_ms.items():
            if not 0 < lat < math.inf:
                raise ValueError(f"latency on edge {edge} must be positive and "
                                 f"finite, got {lat}")
        if self.validator_set & self.tracker_set:
            raise ValueError("validator_set and tracker_set overlap")
        if (self.validator_set | self.tracker_set) != node_set:
            raise ValueError("validators and trackers must cover all nodes")
        object.__setattr__(
            self,
            "_adjacency",
            {n: tuple(sorted(peers)) for n, peers in adjacency.items()},
        )

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, node: int) -> tuple[int, ...]:
        return self._adjacency[node]

    def edge_latency(self, u: int, v: int) -> float:
        return self.latency_ms[(u, v) if u < v else (v, u)]

    def is_connected(self) -> bool:
        if not self.nodes:
            return False
        seen = {self.nodes[0]}
        queue = deque(seen)
        while queue:
            for peer in self._adjacency[queue.popleft()]:
                if peer not in seen:
                    seen.add(peer)
                    queue.append(peer)
        return len(seen) == len(self.nodes)


@dataclass(frozen=True)
class GraphStats:
    """Hop-count metrics over a peer graph (giant component if disconnected)."""

    diameter: int
    radius: int
    avg_distance: float
    median_distance: float
    avg_degree: float
    max_degree: int
    connected: bool
    giant_component_size: int


def load_topology(
    edge_list_text: str,
    validator_ids: Iterable[int] = (),
    default_latency_ms: float = DEFAULT_EDGE_LATENCY_MS,
) -> TopologyGraph:
    """Parse "u v [latency_ms]" lines into a TopologyGraph.

    Blank lines and lines starting with '#' are ignored. A missing latency
    falls back to default_latency_ms. Self-loops, duplicate edges, and
    malformed fields raise EdgeListParseError with the line number; a
    validator id that is not an edge endpoint raises UnknownNodeError.
    """
    edges: set[tuple[int, int]] = set()
    latency: dict[tuple[int, int], float] = {}
    nodes: set[int] = set()
    for lineno, raw in enumerate(edge_list_text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise EdgeListParseError(lineno, f"expected 'u v [latency_ms]', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(lineno, f"non-integer node id in {line!r}") from None
        if u < 0 or v < 0:
            raise EdgeListParseError(lineno, "node ids must be non-negative")
        if u == v:
            raise EdgeListParseError(lineno, f"self-loop on node {u}")
        lat = default_latency_ms
        if len(parts) == 3:
            try:
                lat = float(parts[2])
            except ValueError:
                raise EdgeListParseError(lineno, f"bad latency {parts[2]!r}") from None
        if not 0 < lat < math.inf:
            raise EdgeListParseError(lineno, f"latency must be positive and finite, got {lat}")
        edge = (u, v) if u < v else (v, u)
        if edge in edges:
            raise EdgeListParseError(lineno, f"duplicate edge {edge}")
        edges.add(edge)
        latency[edge] = lat
        nodes.add(u)
        nodes.add(v)
    validators = frozenset(validator_ids)
    missing = validators - nodes
    if missing:
        raise UnknownNodeError(f"validator ids not present in any edge: {sorted(missing)}")
    return TopologyGraph(
        nodes=tuple(sorted(nodes)),
        edges=frozenset(edges),
        latency_ms=latency,
        validator_set=validators,
        tracker_set=frozenset(nodes - validators),
    )


def to_edge_list_text(graph: TopologyGraph) -> str:
    """Serialize a graph back to the edge-list text format (sorted, stable)."""
    lines = [
        f"{u} {v} {graph.latency_ms[(u, v)]!r}" for u, v in sorted(graph.edges)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def generate_topology(
    node_count: int,
    target_avg_degree: float,
    validator_fraction: float,
    latency_range_ms: tuple[float, float],
    seed: int,
) -> TopologyGraph:
    """Generate a connected random graph with a target average degree.

    Degree-targeted construction: every node gets a stub budget near the
    target degree, stubs are matched randomly (collisions discarded), the
    components are then bridged, and the edge count is trimmed or topped up
    to exactly round(target * n / 2). Deterministic for a given seed.
    """
    n = node_count
    if n < 2:
        raise TopologyParameterError("node_count must be at least 2")
    if not 0.0 < validator_fraction < 1.0:
        raise TopologyParameterError("validator_fraction must be in (0, 1)")
    if target_avg_degree <= 0:
        raise TopologyParameterError("target_avg_degree must be positive")
    if target_avg_degree > n - 1:
        raise TopologyParameterError(
            f"target_avg_degree {target_avg_degree} exceeds the complete-graph degree {n - 1}"
        )
    low, high = latency_range_ms
    if low <= 0 or high < low:
        raise TopologyParameterError("latency_range_ms must satisfy 0 < low <= high")

    m_target = round(target_avg_degree * n / 2)
    if m_target < n - 1:
        raise TopologyParameterError(
            f"target_avg_degree {target_avg_degree} cannot keep {n} nodes connected "
            f"(needs at least {2 * (n - 1) / n:.3f})"
        )

    rng = random.Random(seed)

    # Stub budgets: floor(target) everywhere, remainder spread at random.
    degrees = [math.floor(target_avg_degree)] * n
    extra = 2 * m_target - sum(degrees)
    while extra > 0:
        i = rng.randrange(n)
        if degrees[i] < n - 1:
            degrees[i] += 1
            extra -= 1

    stubs: list[int] = []
    for node, d in enumerate(degrees):
        stubs.extend([node] * d)
    rng.shuffle(stubs)

    edges: set[tuple[int, int]] = set()
    for i in range(0, len(stubs) - 1, 2):
        u, v = stubs[i], stubs[i + 1]
        if u == v:
            continue
        edge = (u, v) if u < v else (v, u)
        edges.add(edge)

    # Bridge components so the graph is connected.
    components = _components(_adjacency_lists(n, edges))
    reached = sorted(components[0])
    for comp in components[1:]:
        u = rng.choice(reached)
        v = rng.choice(sorted(comp))
        edges.add((u, v) if u < v else (v, u))
        reached.extend(sorted(comp))
        reached.sort()

    # Trim surplus without disconnecting: keep a BFS tree, drop extras.
    if len(edges) > m_target:
        tree = _spanning_tree_edges(n, edges)
        removable = sorted(edges - tree)
        rng.shuffle(removable)
        for edge in removable:
            if len(edges) <= m_target:
                break
            edges.remove(edge)

    # Top up to the exact edge budget.
    while len(edges) < m_target:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        edge = (u, v) if u < v else (v, u)
        edges.add(edge)

    validator_count = math.ceil(validator_fraction * n)
    validators = frozenset(rng.sample(range(n), validator_count))
    latency = {edge: rng.uniform(low, high) for edge in sorted(edges)}

    graph = TopologyGraph(
        nodes=tuple(range(n)),
        edges=frozenset(edges),
        latency_ms=latency,
        validator_set=validators,
        tracker_set=frozenset(range(n)) - validators,
    )
    realized = 2 * len(edges) / n
    if abs(realized - target_avg_degree) > 0.1 * target_avg_degree:
        raise TopologyParameterError(
            f"realized avg_degree {realized:.3f} strayed from target {target_avg_degree}"
        )
    return graph


def _adjacency_lists(n: int, edges: set[tuple[int, int]]) -> list[list[int]]:
    """Peers of nodes 0..n-1, each list in ascending order."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(edges):
        adjacency[u].append(v)
        adjacency[v].append(u)
    return adjacency


def _components(adjacency: list[list[int]]) -> list[set[int]]:
    """Connected components of nodes 0..len(adjacency)-1, largest first,
    ties broken by smallest member id."""
    seen: set[int] = set()
    comps: list[set[int]] = []
    for start in range(len(adjacency)):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            for peer in adjacency[queue.popleft()]:
                if peer not in comp:
                    comp.add(peer)
                    queue.append(peer)
        seen |= comp
        comps.append(comp)
    comps.sort(key=lambda c: (-len(c), min(c)))
    return comps


def _spanning_tree_edges(n: int, edges: set[tuple[int, int]]) -> set[tuple[int, int]]:
    adjacency = _adjacency_lists(n, edges)
    tree: set[tuple[int, int]] = set()
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                tree.add((u, v) if u < v else (v, u))
                queue.append(v)
    return tree


def graph_stats(graph: TopologyGraph) -> GraphStats:
    """All-pairs BFS metrics in hop counts.

    Disconnected graphs report distance metrics over the giant component
    (largest, ties broken by smallest member id) with connected=False.
    Degree metrics always cover the whole graph. An empty graph yields
    all-zero stats.
    """
    n = graph.node_count
    if n == 0:
        return GraphStats(0, 0, 0.0, 0.0, 0.0, 0, False, 0)

    nodes = sorted(graph.nodes)  # index order is id order, for the tie rule
    index = {node: i for i, node in enumerate(nodes)}
    adjacency = [[index[p] for p in graph.neighbors(node)] for node in nodes]

    degrees = [len(peers) for peers in adjacency]
    avg_degree = 2 * len(graph.edges) / n
    max_degree = max(degrees)

    comps = _components(adjacency)
    giant = comps[0]
    connected = len(giant) == n

    members = sorted(giant)
    if len(members) == 1:
        return GraphStats(0, 0, 0.0, 0.0, avg_degree, max_degree, connected, 1)

    member_pos = {m: i for i, m in enumerate(members)}
    eccentricities: list[int] = []
    pair_sum = 0
    # Histogram of pair distances; the diameter bounds the bucket count.
    hist: dict[int, int] = {}
    for src in members:
        dist = _bfs_distances(src, adjacency, len(giant))
        ecc = 0
        src_pos = member_pos[src]
        for node, d in dist.items():
            if d > ecc:
                ecc = d
            if member_pos[node] > src_pos:
                pair_sum += d
                hist[d] = hist.get(d, 0) + 1
        eccentricities.append(ecc)

    k = len(members)
    pairs = k * (k - 1) // 2
    return GraphStats(
        diameter=max(eccentricities),
        radius=min(eccentricities),
        avg_distance=pair_sum / pairs,
        median_distance=_median_from_histogram(hist, pairs),
        avg_degree=avg_degree,
        max_degree=max_degree,
        connected=connected,
        giant_component_size=k,
    )


def _bfs_distances(src: int, adjacency: list[list[int]], expect: int) -> dict[int, int]:
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adjacency[u]:
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
                if len(dist) == expect:
                    queue.clear()
                    break
    return dist


def _median_from_histogram(hist: dict[int, int], total: int) -> float:
    if total == 0:
        return 0.0
    lo_rank = (total + 1) // 2
    hi_rank = total // 2 + 1
    lo = hi = None
    cumulative = 0
    for d in sorted(hist):
        cumulative += hist[d]
        if lo is None and cumulative >= lo_rank:
            lo = d
        if hi is None and cumulative >= hi_rank:
            hi = d
            break
    assert lo is not None and hi is not None
    return (lo + hi) / 2
