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
from collections.abc import Iterable, KeysView
from dataclasses import dataclass

DEFAULT_EDGE_LATENCY_MS = 20.0
# Sources per bit-parallel BFS pass in graph_stats; bounds memory to N x block bits.
_BFS_BLOCK = 4096
# Edge-list ids must fit the signed 64-bit packing of squelch.squelch_duration_ms.
_ID_LIMIT = 2**63


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

    The keys of latency_ms are the edges, stored as (u, v) pairs with u < v,
    each with a positive, finite latency. Validators are a subset of the
    nodes; every other node is a tracker.
    """

    nodes: tuple[int, ...]
    latency_ms: dict[tuple[int, int], float]
    validator_set: frozenset[int]

    def __post_init__(self) -> None:
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ValueError("duplicate node ids")
        for (u, v), lat in self.latency_ms.items():
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if u > v:
                raise ValueError(f"edge ({u}, {v}) not normalized as (min, max)")
            if u not in node_set or v not in node_set:
                raise ValueError(f"edge ({u}, {v}) references unknown node")
            if not 0 < lat < math.inf:
                raise ValueError(f"latency on edge {(u, v)} must be positive and "
                                 f"finite, got {lat}")
        if not self.validator_set <= node_set:
            raise ValueError("validators must be graph nodes")
        # Not a field: derived once, left out of eq and repr.
        object.__setattr__(self, "_adjacency", _adjacency(self.nodes, self.latency_ms))

    @property
    def edges(self) -> KeysView[tuple[int, int]]:
        return self.latency_ms.keys()

    @property
    def tracker_set(self) -> frozenset[int]:
        return frozenset(self.nodes) - self.validator_set

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.latency_ms)

    def neighbors(self, node: int) -> dict[int, float]:
        """{peer: latency}, peers in ascending id order; copy before mutating."""
        return self._adjacency[node]

    def edge_latency(self, u: int, v: int) -> float:
        return self._adjacency[u][v]

    def is_connected(self) -> bool:
        return bool(self.nodes) and len(_bfs(self._adjacency, self.nodes[0])) == len(self.nodes)


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
        if not (0 <= u < _ID_LIMIT and 0 <= v < _ID_LIMIT):
            raise EdgeListParseError(lineno, f"node ids must lie in [0, 2**63), got {line!r}")
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
        if edge in latency:
            raise EdgeListParseError(lineno, f"duplicate edge {edge}")
        latency[edge] = lat
        nodes.add(u)
        nodes.add(v)
    validators = frozenset(validator_ids)
    missing = validators - nodes
    if missing:
        raise UnknownNodeError(f"validator ids not present in any edge: {sorted(missing)}")
    return TopologyGraph(nodes=tuple(sorted(nodes)), latency_ms=latency, validator_set=validators)


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
    components = _components(_adjacency(range(n), dict.fromkeys(edges)))
    reached = sorted(components[0])
    for comp in components[1:]:
        u = rng.choice(reached)
        v = rng.choice(sorted(comp))
        edges.add((u, v) if u < v else (v, u))
        reached.extend(sorted(comp))
        reached.sort()

    # Trim surplus without disconnecting: keep a BFS tree, drop extras.
    if len(edges) > m_target:
        parent = _bfs(_adjacency(range(n), dict.fromkeys(edges)), 0)
        tree = {(p, c) if p < c else (c, p) for c, p in parent.items() if p is not None}
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

    graph = TopologyGraph(nodes=tuple(range(n)), latency_ms=latency, validator_set=validators)
    realized = 2 * len(edges) / n
    if abs(realized - target_avg_degree) > 0.1 * target_avg_degree:
        raise TopologyParameterError(
            f"realized avg_degree {realized:.3f} strayed from target {target_avg_degree}"
        )
    return graph


def _adjacency(nodes: Iterable[int], edge_map: dict[tuple[int, int], object]) -> dict[int, dict]:
    """{node: {peer: edge value}}, each node's peers in ascending id order."""
    adjacency: dict[int, dict] = {n: {} for n in nodes}
    for u, v in sorted(edge_map):
        adjacency[u][v] = adjacency[v][u] = edge_map[(u, v)]
    return adjacency


def _bfs(adjacency: dict[int, dict], start: int) -> dict[int, int | None]:
    """{node: BFS parent} for every node reachable from start, in BFS order;
    start maps to None."""
    parent: dict[int, int | None] = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in parent:
                parent[v] = u
                queue.append(v)
    return parent


def _components(adjacency: dict[int, dict]) -> list[dict[int, int | None]]:
    """Connected components as _bfs parent maps, largest first, ties broken
    by smallest member id."""
    seen: set[int] = set()
    comps: list[dict[int, int | None]] = []
    for start in adjacency:
        if start not in seen:
            comp = _bfs(adjacency, start)
            seen.update(comp)
            comps.append(comp)
    comps.sort(key=lambda c: (-len(c), min(c)))
    return comps


def graph_stats(graph: TopologyGraph) -> GraphStats:
    """All-pairs BFS metrics in hop counts.

    One level-synchronous BFS runs from every source of a block at once:
    each member holds a Python-int bitmask of the sources it has reached,
    and a level ORs in the neighbours' masks, O(levels x |E|) big-int ORs
    per block of _BFS_BLOCK sources. A member's eccentricity is the level
    at which its mask fills.

    Disconnected graphs report distance metrics over the giant component
    (largest, ties broken by smallest member id) with connected=False.
    Degree metrics always cover the whole graph. An empty graph yields
    all-zero stats.
    """
    n = graph.node_count
    if n == 0:
        return GraphStats(0, 0, 0.0, 0.0, 0.0, 0, False, 0)

    adjacency = graph._adjacency
    avg_degree = 2 * graph.edge_count / n
    max_degree = max(map(len, adjacency.values()))

    giant = _components(adjacency)[0]
    connected = len(giant) == n

    members = sorted(giant)
    if len(members) == 1:
        return GraphStats(0, 0, 0.0, 0.0, avg_degree, max_degree, connected, 1)

    k = len(members)
    pos = {m: i for i, m in enumerate(members)}
    peers = [[pos[p] for p in adjacency[m]] for m in members]
    ecc = [0] * k
    hist: dict[int, int] = {}  # ordered pairs per distance: each pair twice
    for first in range(0, k, _BFS_BLOCK):
        width = min(_BFS_BLOCK, k - first)
        full = (1 << width) - 1
        # reach[i]: bit b set iff source first+b is within `level` hops of i.
        reach = [0] * k
        for b in range(width):
            reach[first + b] = 1 << b
        # A one-source block's source starts full; it must not fill at level 1.
        pending = [i for i in range(k) if reach[i] != full]
        level = 0
        while pending:
            level += 1
            prev, reach, still, grown = reach, reach[:], [], 0
            for i in pending:
                mask = prev[i]
                for j in peers[i]:
                    mask |= prev[j]
                reach[i] = mask
                grown += mask.bit_count() - prev[i].bit_count()
                if mask == full:
                    ecc[i] = max(ecc[i], level)
                else:
                    still.append(i)
            hist[level] = hist.get(level, 0) + grown
            pending = still
    hist = {d: c // 2 for d, c in hist.items()}

    pairs = k * (k - 1) // 2
    return GraphStats(
        diameter=max(ecc),
        radius=min(ecc),
        avg_distance=sum(d * c for d, c in hist.items()) / pairs,
        median_distance=_median_from_histogram(hist, pairs),
        avg_degree=avg_degree,
        max_degree=max_degree,
        connected=connected,
        giant_component_size=k,
    )


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
