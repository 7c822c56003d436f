"""Deterministic discrete-event execution of one dissemination scenario.

Validators emit proposals and validations on a fixed cadence, trackers
submit transaction bursts per plan, and deliveries are timed events on a
single priority queue ordered by (time, insertion sequence). Nodes relay
only the first copy of each message; later copies are counted as duplicates
and dropped. Under the squelch policy the per-validator slot machinery from
`squelch` governs which peers keep relaying, and its control messages
travel the same links (one hop, never relayed).

Identical config and seed produce a bit-identical metrics log: the loop is
single-threaded, all tie-breaks go through the insertion sequence, and the
only randomness is the seeded topology generation upstream.

Messages that always flood (every kind under the flood policy, and the kinds
outside `protocol.squelch_kinds` under the squelch policy) never touch slot
or link state, so they do not interact with each other or with anything
else on the heap, and leaving their events out keeps the relative insertion
order of the rest. Their counts are computed off the heap instead: each
origin lazily gets a template, the first-receipt order and first sender
(parent) of every node for one message flooded alone at t=0. An emission at
`t0` is replayed from it in two passes. The first recomputes each node's
first receipt as its parent's plus the link latency, the same float
additions in the same order as the event loop, so every per-second bucket
comes out identical. The second walks every other send and counts it unless
it arrives at or after `duration_ms`. The replay is exact when every
non-tree arrival comes strictly after its receiver's first receipt: then
each node's earliest copy is the tree copy, whatever the insertion sequence.
When that check fails (a tie, or float rounding that reorders near-ties at
`t0`), or when a counted arrival reaches the first disconnect, the emission
goes through the event loop unchanged. An origin whose template run itself
sees an exact tie (typical of equal-latency graphs) always uses the event
loop. A round's proposals and validation share one replay, counted with a
per-kind multiplicity.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush

from .messages import APPLICATION_KINDS, DEFAULT_MESSAGE_SIZES, MessageKind, SimMessage
from .metrics import MetricsLog
from .squelch import (
    ControlKind,
    PeerLinkState,
    ProtocolConfig,
    Slot,
    on_squelch_expired,
    on_squelch_received,
    on_unsquelch_received,
    on_uplink_lost,
    on_validator_message,
    should_relay,
)
from .topology import TopologyGraph

logger = logging.getLogger(__name__)

# Event codes; payloads are plain tuples for speed. Ordering in the heap is
# (at, seq) only, seq is unique, so payloads are never compared.
_DELIVER_APP = 0
_DELIVER_CTRL = 1
_EMIT_ROUND = 2
_SUBMIT_TX = 3
_SQUELCH_EXPIRY = 4
_DISCONNECT = 5


class RelayPolicy(Enum):
    FLOOD = "flood"
    SQUELCH = "squelch"


class ScenarioSetupError(ValueError):
    """The scenario cannot start (disconnected topology, bad plan ids)."""


@dataclass(frozen=True)
class TxBurst:
    """A group of trackers submitting `count` transactions round-robin,
    spaced by the group-level rate (0 means all at start_ms)."""

    start_ms: float
    trackers: tuple[int, ...]
    count: int
    rate_per_s: float = 0.0

    def __post_init__(self) -> None:
        if self.start_ms < 0 or self.count < 0 or self.rate_per_s < 0:
            raise ValueError("burst fields must be non-negative")


@dataclass(frozen=True)
class Disconnect:
    at_ms: float
    node: int


@dataclass(frozen=True)
class ScenarioConfig:
    topology: TopologyGraph
    duration_ms: int
    relay_policy: RelayPolicy
    ledger_round_ms: int = 1000
    proposals_per_round: int = 1
    tx_plan: tuple[TxBurst, ...] = ()
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    seed: int = 0
    warmup_ms: int = 10_000
    message_sizes: dict[MessageKind, int] = field(
        default_factory=lambda: dict(DEFAULT_MESSAGE_SIZES)
    )
    disconnects: tuple[Disconnect, ...] = ()
    config_hash: str = ""

    def __post_init__(self) -> None:
        if self.warmup_ms < 0 or self.duration_ms <= self.warmup_ms:
            raise ValueError("need duration_ms > warmup_ms >= 0")
        if self.ledger_round_ms <= 0:
            raise ValueError("ledger_round_ms must be positive")
        if self.proposals_per_round < 0:
            raise ValueError("proposals_per_round must be non-negative")
        # Checked here, not per message: replayed kinds build no SimMessage.
        if any(size <= 0 for kind, size in self.message_sizes.items()
               if kind in APPLICATION_KINDS):
            raise ValueError("application message sizes must be positive")


class NodeState:
    """Mutable per-node simulation state."""

    __slots__ = ("node_id", "neighbors", "latency", "links", "slots", "seen",
                 "protocol", "live", "unknown_peer_msgs")

    def __init__(self, node_id: int, neighbors: tuple[int, ...],
                 latency: dict[int, float], protocol: ProtocolConfig):
        self.node_id = node_id
        self.neighbors = neighbors
        self.latency = latency
        self.links = {p: PeerLinkState(p) for p in neighbors}
        self.slots: dict[int, Slot] = {}
        self.seen: set[tuple[MessageKind, int, int]] = set()
        self.protocol = protocol
        self.live = True
        self.unknown_peer_msgs = 0


def relay_decision_flood(node: NodeState, message: SimMessage,
                         arrived_from: int | None) -> list[int]:
    """All live neighbors except the sender; the origin passes None and
    forwards to everyone."""
    return [p for p in node.neighbors if p != arrived_from]


def relay_decision_squelch(node: NodeState, message: SimMessage,
                           arrived_from: int | None, now: float) -> list[int]:
    """Flood set minus peers that squelched us for this origin. Kinds outside
    the configured squelch set (transactions by default) always flood."""
    if message.kind not in node.protocol.squelch_kinds:
        return relay_decision_flood(node, message, arrived_from)
    links = node.links
    origin = message.origin
    return [
        p
        for p in node.neighbors
        if p != arrived_from and should_relay(links[p], origin, now)
    ]


def _build_template(nodes: dict[int, NodeState],
                    origin: int) -> tuple[list[int], dict[int, int | None]] | None:
    """First-receipt order (origin first) and first sender of every node for
    one message flooded alone from `origin` at t=0, in the event loop's
    (time, insertion sequence) order. None when an exact arrival tie makes
    that order depend on the insertion sequence.

    Sends to nodes that already hold the message are never pushed: they are
    duplicates, and leaving them out keeps the relative sequence of the rest.
    """
    first = {origin: 0.0}
    parent: dict[int, int | None] = {origin: None}
    order = [origin]
    heap: list[tuple[float, int, int, int]] = []
    seq = 0
    for p, lat in nodes[origin].latency.items():
        heappush(heap, (lat, seq, origin, p))
        seq += 1
    while heap:
        at, _, src, dst = heappop(heap)
        if dst in first:
            if at == first[dst]:
                return None
            continue
        first[dst] = at
        parent[dst] = src
        order.append(dst)
        for p, lat in nodes[dst].latency.items():
            if p not in first:
                heappush(heap, (at + lat, seq, dst, p))
                seq += 1
    return order, parent


def run_scenario(cfg: ScenarioConfig) -> MetricsLog:
    """Execute the event loop until duration_ms and return the metrics log."""
    graph = cfg.topology
    if not graph.is_connected():
        raise ScenarioSetupError("topology is disconnected")

    protocol = cfg.protocol
    squelching = cfg.relay_policy is RelayPolicy.SQUELCH
    squelch_kinds = protocol.squelch_kinds
    duration = float(cfg.duration_ms)
    sizes = dict(DEFAULT_MESSAGE_SIZES)
    sizes.update(cfg.message_sizes)

    nodes: dict[int, NodeState] = {}
    for node_id in graph.nodes:
        nbrs = graph.neighbors(node_id)
        lat = {p: graph.edge_latency(node_id, p) for p in nbrs}
        nodes[node_id] = NodeState(node_id, nbrs, lat, protocol)

    log = MetricsLog(
        policy=cfg.relay_policy.value,
        seed=cfg.seed,
        config_hash=cfg.config_hash,
        warmup_ms=cfg.warmup_ms,
        duration_ms=cfg.duration_ms,
        message_sizes=sizes,
    )
    counts = log.counts
    dups = log.duplicates

    heap: list[tuple] = []
    seq = 0

    def push(at: float, code: int, data) -> None:
        nonlocal seq
        if at < duration:
            heappush(heap, (at, seq, code, data))
            seq += 1

    validators = sorted(graph.validator_set)
    for v in validators:
        push(0.0, _EMIT_ROUND, v)

    all_trackers = sorted(graph.tracker_set)
    for burst in cfg.tx_plan:
        group = burst.trackers or tuple(all_trackers)
        if burst.count > 0 and not group:
            raise ScenarioSetupError("transaction burst has no trackers to submit from")
        for origin in group:
            if origin not in nodes:
                raise ScenarioSetupError(f"burst tracker {origin} is not a topology node")
        gap = 1000.0 / burst.rate_per_s if burst.rate_per_s > 0 else 0.0
        for i in range(burst.count):
            push(burst.start_ms + i * gap, _SUBMIT_TX, group[i % len(group)])

    for disc in cfg.disconnects:
        if disc.node not in nodes:
            raise ScenarioSetupError(f"disconnect names unknown node {disc.node}")
        push(disc.at_ms, _DISCONNECT, disc.node)
    # Only disconnects that made it onto the heap (push drops the rest).
    first_disconnect = min((d.at_ms for d in cfg.disconnects if d.at_ms < duration),
                           default=float("inf"))
    # Replayed arrivals must land before this; from the first disconnect on,
    # live sets change and only the event loop knows them.
    horizon = min(duration, first_disconnect)
    always_flood = APPLICATION_KINDS - squelch_kinds if squelching else APPLICATION_KINDS
    templates: dict[int, tuple[list[int], dict[int, int | None]] | None] = {}

    sequence_counters: dict[tuple[int, MessageKind], int] = {}

    def next_sequence(origin: int, kind: MessageKind) -> int:
        key = (origin, kind)
        n = sequence_counters.get(key, 0)
        sequence_counters[key] = n + 1
        return n

    emitted_app_msgs = 0

    def broadcast_from_origin(origin_node: NodeState, msg: SimMessage, at: float) -> None:
        """The origin sends to every neighbor, honoring downlink squelches
        for squelchable kinds under the squelch policy."""
        nonlocal emitted_app_msgs, seq
        emitted_app_msgs += 1
        origin_node.seen.add(msg.dedup_key)
        if squelching:
            targets = relay_decision_squelch(origin_node, msg, None, at)
        else:
            targets = relay_decision_flood(origin_node, msg, None)
        src = origin_node.node_id
        lat = origin_node.latency
        for p in targets:
            if nodes[p].live:
                t = at + lat[p]
                if t < duration:
                    heappush(heap, (t, seq, _DELIVER_APP, (msg, src, p)))
                    seq += 1

    def replay(origin: int, t0: float, batch: list[tuple[MessageKind, int]]) -> bool:
        """Count `batch`, (kind, copies) pairs of always-flood messages that
        `origin` emits at t0, from the origin's template. Returns False, having
        counted nothing, when the template tree is not provably the event
        loop's first-receipt tree at t0 or the flood meets a disconnect."""
        if t0 >= first_disconnect:
            return False
        if origin not in templates:
            templates[origin] = _build_template(nodes, origin)
        template = templates[origin]
        if template is None:
            return False
        order, parent = template
        first = {origin: t0}
        out_c: dict[tuple[int, int], int] = defaultdict(int)
        dup_c: dict[tuple[int, int], int] = defaultdict(int)
        tree_in: list[tuple[int, int]] = []
        # Pass 1: first receipts along the tree, and the tree sends.
        for v in order[1:]:
            p = parent[v]
            t = first[p] + nodes[p].latency[v]
            first[v] = t
            if t >= horizon:
                if t >= duration:
                    continue
                return False
            s = int(t // 1000)
            out_c[(p, s)] += 1
            tree_in.append((v, s))
        # Pass 2: every other send is a duplicate, and must arrive strictly
        # after the receiver's tree copy for the tree to be the event loop's.
        for u in order:
            fu = first[u]
            if fu >= duration:
                continue
            pu = parent[u]
            su = int(fu // 1000)
            sent_in_su = 0
            for w, lat in nodes[u].latency.items():
                if w == pu or parent[w] == u:
                    continue
                t = fu + lat
                if t >= horizon:
                    if t >= duration:
                        continue
                    return False
                if t <= first[w]:
                    return False
                s = int(t // 1000)
                if s == su:
                    sent_in_su += 1
                else:
                    out_c[(u, s)] += 1
                dup_c[(w, s)] += 1
            if sent_in_su:
                out_c[(u, su)] += sent_in_su
        for kind, copies in batch:
            for (u, s), n in out_c.items():
                counts[(u, s, kind, "out")] += n * copies
            for (w, s) in tree_in:
                counts[(w, s, kind, "in")] += copies
            for (w, s), n in dup_c.items():
                counts[(w, s, kind, "in")] += n * copies
                dups[(w, s, kind)] += n * copies
        return True

    def emit(node: NodeState, at: float, batch: list[tuple[MessageKind, int]]) -> None:
        """Emit `copies` messages of each kind of `batch` from node at `at`,
        replaying the always-flood kinds when their template allows it."""
        nonlocal emitted_app_msgs
        flooded = [(kind, copies) for kind, copies in batch
                   if copies and kind in always_flood]
        if flooded and replay(node.node_id, at, flooded):
            emitted_app_msgs += sum(copies for _, copies in flooded)
            batch = [(kind, copies) for kind, copies in batch if kind not in always_flood]
        origin = node.node_id
        for kind, copies in batch:
            for _ in range(copies):
                msg = SimMessage(kind, origin, next_sequence(origin, kind), sizes[kind])
                broadcast_from_origin(node, msg, at)

    def feed_slot(node: NodeState, origin: int, from_peer: int, at: float) -> None:
        slot = node.slots.get(origin)
        if slot is None:
            slot = Slot(owner=node.node_id, origin_validator=origin)
            node.slots[origin] = slot
        _, actions = on_validator_message(slot, from_peer, at, protocol)
        src = node.node_id
        lat = node.latency
        for peer, ctrl in actions:
            if not nodes[peer].live:
                continue
            push(at + lat[peer], _DELIVER_CTRL, (ctrl, src, peer))
            if ctrl.kind is ControlKind.SQUELCH:
                push(slot.squelched[peer], _SQUELCH_EXPIRY,
                     (src, origin, peer, slot.squelched[peer]))

    while heap:
        at, _, code, data = heappop(heap)

        if code == _DELIVER_APP:
            msg, src, dst = data
            node = nodes[dst]
            if not node.live:
                continue
            second = int(at // 1000)
            kind = msg.kind
            counts[(src, second, kind, "out")] += 1
            counts[(dst, second, kind, "in")] += 1
            from_live_neighbor = src in node.latency and nodes[src].live
            if not from_live_neighbor:
                node.unknown_peer_msgs += 1
            key = msg.dedup_key
            if key in node.seen:
                dups[(dst, second, kind)] += 1
                if squelching and kind in squelch_kinds and from_live_neighbor:
                    feed_slot(node, msg.origin, src, at)
                continue
            node.seen.add(key)
            if squelching:
                if kind in squelch_kinds and from_live_neighbor:
                    feed_slot(node, msg.origin, src, at)
                targets = relay_decision_squelch(node, msg, src, at)
            else:
                targets = relay_decision_flood(node, msg, src)
            lat = node.latency
            for p in targets:
                if nodes[p].live:
                    t = at + lat[p]
                    if t < duration:
                        heappush(heap, (t, seq, _DELIVER_APP, (msg, dst, p)))
                        seq += 1

        elif code == _DELIVER_CTRL:
            ctrl, src, dst = data
            node = nodes[dst]
            if not node.live:
                continue
            second = int(at // 1000)
            kind = (MessageKind.SQUELCH if ctrl.kind is ControlKind.SQUELCH
                    else MessageKind.UNSQUELCH)
            counts[(src, second, kind, "out")] += 1
            counts[(dst, second, kind, "in")] += 1
            link = node.links.get(src)
            if link is None:
                node.unknown_peer_msgs += 1
                continue
            if ctrl.kind is ControlKind.SQUELCH:
                on_squelch_received(link, ctrl, at)
            else:
                on_unsquelch_received(link, ctrl)

        elif code == _EMIT_ROUND:
            v = data
            node = nodes[v]
            if not node.live:
                continue
            emit(node, at, [(MessageKind.PROPOSAL, cfg.proposals_per_round),
                            (MessageKind.VALIDATION, 1)])
            push(at + cfg.ledger_round_ms, _EMIT_ROUND, v)

        elif code == _SUBMIT_TX:
            origin = data
            node = nodes[origin]
            if not node.live:
                continue
            emit(node, at, [(MessageKind.TRANSACTION, 1)])

        elif code == _SQUELCH_EXPIRY:
            owner, validator, peer, expiry = data
            node = nodes[owner]
            if not node.live:
                continue
            slot = node.slots.get(validator)
            # Stale expiries (slot reset or re-squelch meanwhile) are skipped.
            if slot is not None and slot.squelched.get(peer) == expiry:
                on_squelch_expired(slot, peer, at)

        else:  # _DISCONNECT
            gone = data
            node = nodes[gone]
            if not node.live:
                continue
            node.live = False
            for nb_id in node.neighbors:
                nb = nodes[nb_id]
                if not nb.live:
                    continue
                nb.neighbors = tuple(p for p in nb.neighbors if p != gone)
                nb.latency.pop(gone, None)
                _, actions = on_uplink_lost(nb.slots, gone, at)
                for peer, ctrl in actions:
                    if peer != gone and nodes[peer].live:
                        push(at + nb.latency[peer], _DELIVER_CTRL, (ctrl, nb_id, peer))

    if emitted_app_msgs == 0:
        logger.warning(
            "scenario produced no application traffic (no validators or transactions); "
            "metrics log is empty"
        )
    return log
