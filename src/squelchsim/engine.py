"""Deterministic discrete-event execution of one dissemination scenario.

Validators emit proposals and validations on a fixed cadence, trackers
submit transaction bursts per plan, and deliveries are timed events on a
priority queue ordered by (time, insertion sequence). Nodes relay only the
first copy of each message; later copies are counted as duplicates and
dropped. For the kinds in the run's squelchable set a node's `squelch` slot
governs which peers keep relaying, and its control messages travel the same
links (one hop, never relayed). The flood policy is the squelch policy with
an empty squelchable set, and an origin and a relay send through the same
path (`forward`).

A run is one event loop per origin, in origin order, each with its own heap
and fresh node state, adding into one metrics log. This is exact: every
event but a disconnect belongs to one origin (its message's emission or
delivery, its slot's control message or squelch expiry) and touches only
that origin's state, a node's slot, downlink squelches and held message ids.
Only disconnects change the shared latency maps, and each origin's run
replays them all. Dropping the other origins' events keeps the relative
(time, insertion sequence) order of the rest, so the counts add.

Messages whose copies change no state leave the heap by the same argument.
Their counts come from a template over an adjacency {node: {peer:
latency}}: the first-receipt order and first sender (parent) of every node
for one message flooded alone at t=0. An emission at `t0` is replayed from
it in two passes. The first recomputes each node's first receipt as its
parent's plus the link latency, the same float additions in the same order
as the event loop, so every per-second bucket comes out identical. The
second walks every other send and counts it unless it arrives at or after
`duration_ms`. The replay is exact when every non-tree arrival comes
strictly after its receiver's first receipt: then each node's earliest copy
is the tree copy, whatever the insertion sequence. When that check fails (a
tie, or float rounding that reorders near-ties at `t0`), when a counted
arrival reaches the replay's horizon, or from the first disconnect on, the
emission goes through the event loop unchanged; so does every emission over
a template whose own run saw an exact tie (typical of equal-latency graphs).
A round's kinds share one replay, counted with a per-kind multiplicity.

From a template's second replay on, an emission is counted from the
template's offset summary when rounding cannot decide anything. The summary
is the template's own run at t=0, with the replay's float additions: each
node's first receipt `off`, each send's arrival offset, the depth K of the
tree and the latest arrival M. Let D = `duration_ms` and u = 2**-53. While
every arrival lands before D, every partial sum lies in [0, D), so each
float addition is off by at most u·D. A node at depth k is reached by k
additions from t0 and k - 1 from 0 (the first, 0 + latency, is exact), and
a send adds one more to each side: every replayed time differs from the
real t0 + offset by at most (2K + 2)·u·D. The margin τ = (2K + 4)·2**-52·D
is over twice that, and what it has to spare covers the roundings of the
tests below. The summary counts an emission at t0 when:

- every non-tree send arrives more than 2τ after its receiver's first
  receipt, in offsets (its slack), so the strict-arrival check holds;
- t0 + M + τ < the replay's horizon, so every arrival is counted;
- no offset lies within τ of 1000k - t0 for any whole second 1000k in
  (t0, t0 + M + τ], so each arrival lands in the second of t0 + its offset.

Then `int(t // 1000)` of every arrival is decided by offsets alone, and a
node's count per second is a bisect of its sorted offsets at each second
boundary; with no boundary in range, its stored totals. Otherwise the two
passes run. An origin that emits once builds no summary, and a summary
lives as long as its template: the origin's run or its kept result.

Messages that always flood (the kinds outside the squelchable set: all of
them under the flood policy, transactions by default under the squelch
policy) never touch slot or downlink state; they replay over the latency
maps. A squelchable emission at `t0` replays over a pruned adjacency, in
which each node keeps the peers whose downlink squelch has elapsed by `t0`
(with none unexpired, the latency maps and their template), once none of
the origin's deliveries or control messages is in flight. Every pruned send
that arrives before `duration_ms` feeds its receiver's slot, and the send
check sorts those feeds:

- Quiet: each fed slot has selected the sender, or filled its selection and
  still squelches the sender. `on_validator_message` then returns nothing
  and changes at most an already selected peer's count, which nothing reads.
  The horizon is the earliest slot squelch expiry, downlink expiry after
  `t0`, first disconnect or `duration_ms`, and nothing else changes that
  state before it. The result is kept for later emissions up to its
  horizon. No control or squelchable copy is in flight at `t0`; later ones
  come only from a slot action or an emission that falls back to the event
  loop, and either drops the kept result, as do a control delivery and a
  live expiry.
- Counting: some fed slot is still counting (or not created yet) and the
  sender is not among its selected peers. The emission replays only if no
  counting slot fills its selection: its selected peers plus the fed
  unselected peers whose count reaches `count_threshold` with the batch's
  copies stay below `max_selected`, and every selected slot's feeds are
  quiet. The horizon also ends at the origin's next heap event (an
  emission, a squelch expiry, stale or not, a disconnect) and, for a
  round, at the next round's emission, pushed only after this one returns.
  Inside that window no other event of the origin runs and no feed returns
  an action, so the relay targets stay fixed and the flood is the
  template's. The feeds are counter increments and set inserts, which
  commute: applied at `t0` once the replay succeeds, they leave the slots
  as the event loop leaves them by the window's end. The result serves
  this emission alone.

A round that fills a selection stays on the event loop: its squelches
change downlinks while its copies are in flight.

Identical config and seed produce a bit-identical metrics log: the loop is
single-threaded, all tie-breaks go through the insertion sequence, and the
only randomness is the seeded topology generation upstream.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from itertools import chain, count
from math import inf, isfinite
from typing import NamedTuple

from .messages import APPLICATION_KINDS, DEFAULT_MESSAGE_SIZES, MessageKind
from .metrics import MetricsLog
from .squelch import (
    ControlMessage,
    ProtocolConfig,
    Slot,
    SlotState,
    on_squelch_expired,
    on_squelch_received,
    on_unsquelch_received,
    on_uplink_lost,
    on_validator_message,
)
from .topology import TopologyGraph

# A heap entry is one flat record (at, seq, code, node, kind, peer, arg):
# `node` is where the event happens, and an event at a disconnected node is
# dropped before dispatch. Heap order is (at, seq); seq is unique. The origin
# is the run's. Deliveries: `peer` sent, `arg` is the message id or the
# ControlMessage. _EMIT: `arg` is a (kind, copies) batch. _SQUELCH_EXPIRY:
# the squelch of `peer`, due at `arg`. _DISCONNECT: `node` leaves.
_DELIVER_APP = 0
_DELIVER_CTRL = 1
_EMIT = 2
_SQUELCH_EXPIRY = 3
_DISCONNECT = 4


class RelayPolicy(Enum):
    FLOOD = "flood"
    SQUELCH = "squelch"


class ScenarioSetupError(ValueError):
    """The scenario cannot start (disconnected topology, bad plan ids,
    nothing to emit)."""


@dataclass(frozen=True)
class TxBurst:
    """A group of trackers submitting `count` transactions round-robin,
    spaced by the group-level rate (0 means all at start_ms)."""

    start_ms: float
    trackers: tuple[int, ...]
    count: int
    rate_per_s: float = 0.0

    def __post_init__(self) -> None:
        if not (isfinite(self.start_ms) and isfinite(self.rate_per_s)):
            raise ValueError("burst start_ms and rate_per_s must be finite")
        if self.start_ms < 0 or self.count < 0 or self.rate_per_s < 0:
            raise ValueError("burst fields must be non-negative")


@dataclass(frozen=True)
class Disconnect:
    at_ms: float
    node: int

    def __post_init__(self) -> None:
        if not isfinite(self.at_ms):
            raise ValueError("disconnect at_ms must be finite")
        if self.at_ms < 0:
            raise ValueError("disconnect at_ms must be non-negative")


@dataclass(frozen=True)
class ScenarioConfig:
    topology: TopologyGraph
    duration_ms: int
    relay_policy: RelayPolicy = RelayPolicy.FLOOD
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
        if not all(map(isfinite, (self.duration_ms, self.warmup_ms, self.ledger_round_ms))):
            raise ValueError("duration_ms, warmup_ms and ledger_round_ms must be finite")
        if self.warmup_ms < 0 or self.duration_ms <= self.warmup_ms:
            raise ValueError("need duration_ms > warmup_ms >= 0")
        if self.ledger_round_ms <= 0:
            raise ValueError("ledger_round_ms must be positive")
        if self.proposals_per_round < 0:
            raise ValueError("proposals_per_round must be non-negative")
        if any(size <= 0 for size in self.message_sizes.values()):
            raise ValueError("message sizes must be positive")


class NodeState:
    """Mutable per-node simulation state."""

    __slots__ = ("node_id", "latency", "downlink", "slot", "seen", "live")

    def __init__(self, node_id: int, latency: dict[int, float]):
        self.node_id = node_id
        # Live neighbours, in ascending id order, and the latency to each. A
        # disconnect deletes the leaving node here before any later event, so
        # a live node's `latency` names live nodes only. Sends go to its keys,
        # control actions to peers that fed a slot while in it
        # (`on_uplink_lost` forgets a lost peer): no send tests liveness.
        self.latency = latency
        # {peer: expiry}: the squelches this node's peers sent it.
        self.downlink: dict[int, float] = {}
        self.slot: Slot | None = None
        self.seen: set[int] = set()  # ids of the messages held
        self.live = True


def relay_targets(node: NodeState, kind: MessageKind, arrived_from: int | None,
                  now: float, squelch_kinds: frozenset[MessageKind]) -> list[int]:
    """All live neighbors except the sender (None at the origin), minus the
    peers that squelched this node when `kind` is squelchable. A squelch
    whose expiry equals `now` has elapsed."""
    squelched = node.downlink
    if squelched and kind in squelch_kinds:
        # A peer without a squelch reads as expiring now, so it is kept.
        return [p for p in node.latency
                if p != arrived_from and squelched.get(p, now) <= now]
    return [p for p in node.latency if p != arrived_from]


def _build_template(adjacency: dict[int, dict[int, float]],
                    origin: int) -> tuple[list[int], dict[int, int | None]] | None:
    """First-receipt order (origin first) and first sender of every node
    reached by one message flooded alone from `origin` at t=0, each node
    sending to its peers in `adjacency` ({node: {peer: latency}}), in the
    event loop's (time, insertion sequence) order. None when an exact arrival
    tie makes that order depend on the insertion sequence.

    Sends to nodes that already hold the message are never pushed: they are
    duplicates, and leaving them out keeps the relative sequence of the rest.
    """
    first = {origin: 0.0}
    parent: dict[int, int | None] = {origin: None}
    order = [origin]
    heap: list[tuple[float, int, int, int]] = []
    seq = 0
    for p, lat in adjacency[origin].items():
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
        for p, lat in adjacency[dst].items():
            if p not in first:
                heappush(heap, (at + lat, seq, dst, p))
                seq += 1
    return order, parent


# (node, n) pairs, one per node with n > 0, and (node, sorted offsets) pairs.
_Totals = list[tuple[int, int]]
_Offsets = list[tuple[int, list[float]]]


class _OffsetSummary(NamedTuple):
    """A template's emission at t=0 (`_offset_summary`). `by_node` and
    `totals` hold, in this order, each node's sends, every copy it takes
    (first and duplicate) and its duplicates, each send at its arrival."""

    depth: int  # K, the deepest first receipt's hop count
    latest: float  # M, the latest arrival offset
    slack: float  # least gap from a non-tree arrival back to its receiver's first receipt
    offsets: list[float]  # every send's arrival offset, sorted
    by_node: tuple[_Offsets, _Offsets, _Offsets]
    totals: tuple[_Totals, _Totals, _Totals]

    def margin(self, duration: float) -> float:
        """τ: twice the most a replayed time can differ from t0 + offset."""
        return (2 * self.depth + 4) * 2**-52 * duration


def _offset_summary(tmpl, adjacency: dict[int, dict[int, float]],
                    origin: int) -> _OffsetSummary:
    """The offset summary of template `tmpl` (order and parent first, as
    `_build_template` returns them) over `adjacency`: the template's
    emission at t=0, with the same float additions as `_build_template`."""
    order, parent = tmpl[0], tmpl[1]
    off = {origin: 0.0}
    depth = {origin: 0}
    for v in order[1:]:
        p = parent[v]
        off[v] = off[p] + adjacency[p][v]
        depth[v] = depth[p] + 1
    dup = defaultdict(list)
    out = []
    for u in order:
        fu = off[u]
        pu = parent[u]
        sends = []
        for w, lat in adjacency[u].items():
            if w == pu:
                continue
            if parent[w] == u:
                t = off[w]
            else:
                t = fu + lat
                dup[w].append(t)
            sends.append(t)
        if sends:
            sends.sort()
            out.append((u, sends))
    dups = {w: sorted(ts) for w, ts in dup.items()}
    # Each node takes its first copy, the origin none, and its duplicates.
    into = [(w, sorted([off[w], *dups.get(w, ())])) for w in order[1:]]
    if origin in dups:
        into.append((origin, dups[origin]))
    by_node = (out, into, list(dups.items()))
    offsets = sorted(chain.from_iterable(ts for _, ts in out))
    return _OffsetSummary(
        max(depth.values()), offsets[-1] if offsets else 0.0,
        min((ts[0] - off[w] for w, ts in dups.items()), default=inf), offsets, by_node,
        tuple([(n, len(ts)) for n, ts in lists] for lists in by_node))


def _split(by_node: _Offsets, s0: int, cuts: list[float]) -> list[tuple[int, _Totals]]:
    """(second, totals) for each node's sorted offsets, which fall in second
    s0 before cuts[0], s0 + 1 from cuts[0] to cuts[1], and so on."""
    buckets: list[_Totals] = [[] for _ in range(len(cuts) + 1)]
    for node, offs in by_node:
        lo = 0
        for i, c in enumerate(cuts):
            hi = bisect_left(offs, c, lo)
            if hi > lo:
                buckets[i].append((node, hi - lo))
            lo = hi
        if lo < len(offs):
            buckets[-1].append((node, len(offs) - lo))
    return list(enumerate(buckets, s0))


def _offset_replay(summary: _OffsetSummary, t0: float, batch, horizon: float,
                   duration: float, log: MetricsLog) -> bool:
    """Count `batch`, (kind, copies) pairs emitted at t0, into `log` from
    `summary` when its margin decides every arrival (see the module
    docstring). Returns False, having counted nothing, otherwise."""
    tau = summary.margin(duration)
    reach = summary.latest + tau
    if summary.slack <= 2 * tau or t0 + reach >= horizon:
        return False
    offsets = summary.offsets
    s0 = int(t0 // 1000)
    cuts: list[float] = []
    while (c := 1000.0 * (s0 + 1 + len(cuts)) - t0) <= reach:
        if bisect_left(offsets, c - tau) != bisect_right(offsets, c + tau):
            return False
        cuts.append(c)
    if cuts:
        out, into, dup = (_split(by_node, s0, cuts) for by_node in summary.by_node)
    else:
        # The common case: the whole flood lands in t0's second. The stored
        # totals spare a list build per node and emission; without them the
        # benchmark's reference_compare ran 47% longer.
        out, into, dup = ([(s0, totals)] for totals in summary.totals)
    counts, dups = log.counts, log.duplicates
    for kind, copies in batch:
        for s, totals in out:
            for u, n in totals:
                counts[(u, s, kind, "out")] += n * copies
        for s, totals in into:
            for w, n in totals:
                counts[(w, s, kind, "in")] += n * copies
        for s, totals in dup:
            for w, n in totals:
                dups[(w, s, kind)] += n * copies
    return True


def run_scenario(cfg: ScenarioConfig) -> MetricsLog:
    """Execute the event loop until duration_ms and return the metrics log."""
    graph = cfg.topology
    if not graph.is_connected():
        raise ScenarioSetupError("topology is disconnected")

    if not graph.validator_set and not any(b.count > 0 for b in cfg.tx_plan):
        raise ScenarioSetupError("nothing emits: no validators and no transactions")

    protocol = cfg.protocol
    squelch_kinds = (protocol.squelch_kinds if cfg.relay_policy is RelayPolicy.SQUELCH
                     else frozenset())
    duration = float(cfg.duration_ms)
    sizes = dict(DEFAULT_MESSAGE_SIZES)
    sizes.update(cfg.message_sizes)

    # An _EMIT of the round batch pushes the node's next round.
    round_batch = ((MessageKind.PROPOSAL, cfg.proposals_per_round),
                   (MessageKind.VALIDATION, 1))
    tx_batch = ((MessageKind.TRANSACTION, 1),)
    # origin -> its (at, batch) emissions, in push order.
    emissions: dict[int, list[tuple[float, tuple]]] = defaultdict(list)
    for v in sorted(graph.validator_set):
        emissions[v].append((0.0, round_batch))

    known = set(graph.nodes)
    for burst in cfg.tx_plan:
        group = burst.trackers or tuple(sorted(graph.tracker_set))
        if burst.count > 0 and not group:
            raise ScenarioSetupError("transaction burst has no trackers to submit from")
        for tracker in group:
            if tracker not in known:
                raise ScenarioSetupError(f"burst tracker {tracker} is not a topology node")
        gap = 1000.0 / burst.rate_per_s if burst.rate_per_s > 0 else 0.0
        for i in range(burst.count):
            emissions[group[i % len(group)]].append((burst.start_ms + i * gap, tx_batch))

    for disc in cfg.disconnects:
        if disc.node not in known:
            raise ScenarioSetupError(f"disconnect names unknown node {disc.node}")
    # Only disconnects that make it onto the heap (push drops the rest).
    first_disconnect = min((d.at_ms for d in cfg.disconnects if d.at_ms < duration),
                           default=float("inf"))
    # Replayed arrivals must land before this; from the first disconnect on,
    # live sets change and only the event loop knows them.
    horizon = min(duration, first_disconnect)
    always_flood = APPLICATION_KINDS - squelch_kinds

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
    msg_ids = count()
    seq = 0

    # The helpers act on the current origin's `origin`, `nodes`, `heap`, `template`.

    def push(at: float, code: int, node: int, kind, peer, arg) -> None:
        nonlocal seq
        if at < duration:
            heappush(heap, (at, seq, code, node, kind, peer, arg))
            seq += 1

    def forward(node: NodeState, kind: MessageKind, msg_id: int,
                arrived_from: int | None, at: float) -> None:
        """`node` takes message `msg_id` and sends it on to its relay targets;
        the origin passes arrived_from=None."""
        nonlocal seq
        node.seen.add(msg_id)
        src = node.node_id
        lat = node.latency
        for p in relay_targets(node, kind, arrived_from, at, squelch_kinds):
            t = at + lat[p]
            if t < duration:
                heappush(heap, (t, seq, _DELIVER_APP, p, kind, src, msg_id))
                seq += 1

    def new_template(adjacency: dict[int, dict[int, float]]) -> list | None:
        """The origin's template over `adjacency` as a record [order, parent,
        replays, offset summary], or None after an exact tie. The record's
        second replay builds its summary."""
        tmpl = _build_template(adjacency, origin)
        return tmpl and [*tmpl, 0, None]

    def replay(t0: float, batch: list[tuple[MessageKind, int]], tmpl: list,
               adjacency: dict[int, dict[int, float]], horizon: float) -> bool:
        """Count `batch`, (kind, copies) pairs of messages that the origin
        emits at t0 and that every node sends to its peers in `adjacency`,
        from `tmpl`, their template record: from its offset summary where
        that is exact, else in two passes. Returns False, having counted
        nothing, when the template tree is not provably the event loop's
        first-receipt tree at t0 or an arrival lands in [horizon, duration)."""
        order, parent, replays, summary = tmpl
        tmpl[2] = replays + 1
        if replays == 1:
            summary = tmpl[3] = _offset_summary(tmpl, adjacency, origin)
        if summary and _offset_replay(summary, t0, batch, horizon, duration, log):
            return True
        first = {origin: t0}
        out_c: dict[tuple[int, int], int] = defaultdict(int)
        dup_c: dict[tuple[int, int], int] = defaultdict(int)
        tree_in: list[tuple[int, int]] = []
        # Pass 1: first receipts along the tree, and the tree sends.
        for v in order[1:]:
            p = parent[v]
            t = first[p] + adjacency[p][v]
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
            for w, lat in adjacency[u].items():
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

    def settle(t0: float, copies: int, next_round: float):
        """(pruned template, falsy after a tie; adjacency; window end; feeds)
        for `copies` squelchable messages the origin emits at t0, or None
        while they must run on the event loop. `feeds` lists (receiver,
        senders) for each counting slot, or node without one, that a sender
        it has not selected reaches, for the caller to apply once the replay
        succeeds. When it is empty the result holds until its window end;
        otherwise it serves this emission alone, and the window also ends at
        the origin's next heap event and at `next_round`, this round's next
        emission, which is not pushed yet."""
        nonlocal template
        if any(e[2] <= _DELIVER_CTRL for e in heap):
            return None
        end = horizon
        if any(x > t0 for node in nodes.values() for x in node.downlink.values()):
            adjacency: dict[int, dict[int, float]] = {}
            for n, node in nodes.items():
                kept = adjacency[n] = {}
                for p, lat in node.latency.items():
                    x = node.downlink.get(p, t0)
                    if x <= t0:
                        kept[p] = lat
                    elif x < end:
                        end = x
            tmpl = new_template(adjacency)
        else:
            adjacency = latency
            if template is None:
                template = new_template(latency) or False
            tmpl = template
        if not tmpl:
            return tmpl, adjacency, end, ()
        # The peers whose copy reaches each node before the run ends; each
        # copy feeds the receiver's slot.
        order, parent = tmpl[0], tmpl[1]
        first = {origin: t0}
        for v in order[1:]:
            p = parent[v]
            first[v] = first[p] + adjacency[p][v]
        fed: dict[int, list[int]] = defaultdict(list)
        for u in order:
            fu = first[u]
            pu = parent[u]
            for w, lat in adjacency[u].items():
                if w != pu and fu + lat < duration:
                    fed[w].append(u)
        feeds = []
        threshold = protocol.count_threshold
        for w, peers in fed.items():
            s = nodes[w].slot
            if s is None:
                selected, counts = set(), {}
            elif s.state is SlotState.SELECTED:
                if not s.squelched.keys() >= set(peers) - s.selected:
                    return None
                continue
            elif s.selected.issuperset(peers):
                continue
            else:
                selected, counts = s.selected, s.per_peer_count
            # A counting slot must not fill its selection.
            if (copies + max(counts.values(), default=0) >= threshold
                    and len(selected) + sum(u not in selected and counts.get(u, 0) + copies
                                            >= threshold for u in peers)
                    >= protocol.max_selected):
                return None
            feeds.append((w, peers))
        if feeds:
            return tmpl, adjacency, min(end, next_round, heap[0][0] if heap else end), feeds
        for node in nodes.values():
            if node.slot and node.slot.squelched:
                end = min(end, *node.slot.squelched.values())
        return tmpl, adjacency, end, feeds

    def emit(node: NodeState, at: float, batch: tuple[tuple[MessageKind, int], ...]) -> None:
        """Emit `copies` messages of each kind of `batch` from the origin at
        `at`, replaying what its templates allow."""
        nonlocal template, steady
        if at < first_disconnect:
            next_round = at + cfg.ledger_round_ms if batch is round_batch else duration
            flooded = [(kind, copies) for kind, copies in batch if copies and kind in always_flood]
            if flooded and template is None:
                template = new_template(latency) or False
            if flooded and template and replay(at, flooded, template, latency, horizon):
                batch = [(kind, copies) for kind, copies in batch if kind not in always_flood]
            pruned = [(kind, copies) for kind, copies in batch if copies and kind in squelch_kinds]
            k = sum(copies for _, copies in pruned)
            if pruned and (steady is None or at >= steady[2]):
                steady = settle(at, k, next_round)
            if pruned and steady and steady[0]:
                tmpl, adjacency, end, feeds = steady
                if not replay(at, pruned, tmpl, adjacency, end):
                    steady = None  # its copies go in flight
                else:
                    batch = [(kind, copies) for kind, copies in batch if kind in always_flood]
                    # The copies' effect on the slots; the event loop's, in another order.
                    for w, peers in feeds:
                        slot = nodes[w].slot
                        if slot is None:
                            slot = nodes[w].slot = Slot(owner=w, origin_validator=origin)
                        counts, selected = slot.per_peer_count, slot.selected
                        for u in peers:
                            if u not in selected:
                                n = counts[u] = counts.get(u, 0) + k
                                if n >= protocol.count_threshold:
                                    selected.add(u)
                                    slot.squelched.pop(u, None)
                    if feeds:
                        steady = None
        for kind, copies in batch:
            for _ in range(copies):
                forward(node, kind, next(msg_ids), None, at)

    def send_controls(node: NodeState, actions: list[tuple[int, ControlMessage]],
                      at: float) -> None:
        """Send each (peer, control message) of `actions`, and for a squelch
        also push its expiry, `at + duration`: the same float the slot keeps
        in `squelched`."""
        src = node.node_id
        lat = node.latency
        for peer, ctrl in actions:
            push(at + lat[peer], _DELIVER_CTRL, peer, ctrl.kind, src, ctrl)
            if ctrl.kind is MessageKind.SQUELCH:
                expiry = at + ctrl.duration_ms
                push(expiry, _SQUELCH_EXPIRY, src, None, peer, expiry)

    for origin in sorted(emissions):
        nodes = {n: NodeState(n, dict(graph.neighbors(n))) for n in graph.nodes}
        latency = {n: node.latency for n, node in nodes.items()}
        # A template record (new_template), built on the first replay; False
        # when a tie rules the template out.
        template = None
        steady = None  # settle()'s result, kept until its window ends
        heap: list[tuple] = []
        for at, batch in emissions[origin]:
            push(at, _EMIT, origin, None, None, batch)
        for disc in cfg.disconnects:
            push(disc.at_ms, _DISCONNECT, disc.node, None, None, None)

        while heap:
            at, _, code, dst, kind, peer, arg = heappop(heap)
            node = nodes[dst]
            if not node.live:
                continue
            if code <= _DELIVER_CTRL:
                second = int(at // 1000)
                counts[(peer, second, kind, "out")] += 1
                counts[(dst, second, kind, "in")] += 1
                if code == _DELIVER_APP:
                    # The sender may have left while the copy was in flight.
                    if kind in squelch_kinds and peer in node.latency:
                        slot = node.slot
                        if slot is None:
                            slot = node.slot = Slot(owner=dst, origin_validator=origin)
                        actions = on_validator_message(slot, peer, at, protocol)
                        if actions:
                            send_controls(node, actions, at)
                            steady = None
                    if arg in node.seen:
                        dups[(dst, second, kind)] += 1
                    else:
                        forward(node, kind, arg, peer, at)
                else:
                    steady = None
                    if kind is MessageKind.SQUELCH:
                        on_squelch_received(node.downlink, peer, arg, at)
                    else:
                        on_unsquelch_received(node.downlink, peer, arg)

            elif code == _EMIT:
                emit(node, at, arg)
                if arg is round_batch:
                    push(at + cfg.ledger_round_ms, _EMIT, dst, None, None, round_batch)

            elif code == _SQUELCH_EXPIRY:
                # Stale expiries (slot reset or re-squelch meanwhile) are skipped.
                if node.slot.squelched.get(peer) == arg:
                    on_squelch_expired(node.slot, peer, at)
                    steady = None

            else:  # _DISCONNECT
                node.live = False
                for nb_id in node.latency:
                    nb = nodes[nb_id]
                    del nb.latency[dst]
                    if nb.slot is not None:
                        send_controls(nb, on_uplink_lost(nb.slot, dst, at), at)

    return log
