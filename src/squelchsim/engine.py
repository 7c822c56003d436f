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
Only disconnects change the latency maps, and each origin's run starts from
the graph's maps and replays them all. Dropping the other origins' events
keeps the relative (time, insertion sequence) order of the rest, so the
counts add.

Messages whose copies change no state leave the heap by the same argument.
Their counts come from a template over an adjacency {node: {peer:
latency}}: the first-receipt order and first sender (parent) of every node
for one message flooded alone. A template is built at its first emission's
`t0` by one heap run in the event loop's (time, insertion sequence) order
(`_build_template`). The run is a tree search and counts nothing. The
emission is counted from the finished tree, in one of two ways.

- The closed form (`_tree_counts`): over the latency maps, which are
  symmetric, when every send lands before t0's next whole second and the
  horizon (below), which is at most `duration_ms`. Then every copy counts
  in t0's second: each node reached sends to every peer but its parent
  (`out = deg - [not origin]`), takes a copy from every peer that is not
  its child (`in = deg - children`), and every copy but its first is a
  duplicate (`dup = in - [not origin]`). A squelch round's sender lists
  are each node's peers minus its children. Ties do not matter here: the
  run sends to the peers in the order of their latency maps, as the event
  loop does, so where two copies reach a node first at the same time the
  insertion sequence picks the same parent in both, and a duplicate that
  meets its receiver's first receipt is a duplicate in both.
- Any other build (a pruned adjacency, which is not symmetric and whose
  peer order a mended link changes, or a flood that crosses a second or
  reaches the horizon) is counted by `_walk`, the one per-send counter.

A later emission at `t0` is replayed from the template by the same walk,
in two passes. The first recomputes each node's first receipt as its
parent's plus the link latency, the same float additions in the same order
as the event loop and the building run, so every per-second bucket comes
out identical. The second walks every other send and counts it unless it
arrives at or after `duration_ms`. The walk is exact when every non-tree
arrival comes strictly after its receiver's first receipt: then each
node's earliest copy is the tree copy, whatever the insertion sequence, and
it checks this on every send. When that check fails (a tie, or float
rounding that reorders near-ties at `t0`) or a counted arrival reaches the
replay's horizon, the emission goes through the event loop unchanged, and
the template is kept. That check is the engine's one rule for ties. A
build whose insertion sequence picked a parent (two copies reach a node
first at the same time, typical of equal-latency graphs) keeps its
template like any other, and its emission is counted like any other's:
from the closed form, where ties do not matter, or by a walk, which meets
the tie and falls back. A later emission whose walk meets the tie falls
back too, and one at a `t0` where rounding puts the tree copy strictly
first replays. A round's kinds share one replay, counted with a per-kind
multiplicity.

The horizon is `duration_ms` or the next disconnect still on the heap,
whichever comes first: a disconnect changes the live sets. Every disconnect
popped, also one of a node already gone, moves it on to the next one. A
disconnect of a live node gives each neighbour a copy of its latency map
without the leaving node (the graph's maps are never changed) and drops the
node's links from the pruned adjacency (below). It also drops the origin's
template and kept result, which were built over the old latency maps; the
next emission rebuilds them over the new ones. It clears the leaving node's
slot and downlinks too: the events of a node that has left are dropped
unseen, its squelch expiries among them, so no window may wait on its
squelches.

A template's first use is the emission it is built at. A later replay is
counted from the template's offset summary when rounding cannot decide
anything. The summary is the template's emission at t=0, its offsets
recomputed from 0 along the tree with the walk's float additions. It keeps
the depth K of the tree, the latest arrival offset M, the slack below and
each node's (dup, in, out) totals over the log's node index, and no
per-send offset. Its slack test rejects a tree that is not the
first-receipt tree at t=0, or that ties there (slack ≤ 0), so a template
built at a later `t0` stays exact. Let
D = `duration_ms` and u = 2**-53. While every arrival lands before D, every
partial sum lies in [0, D), so each float addition is off by at most u·D.
A node at depth k is reached by k additions from t0 and k - 1 from 0 (the
first, 0 + latency, is exact), and a send adds one more to each side: every
replayed time differs from the real t0 + offset by at most (2K + 2)·u·D.
The margin τ = (2K + 4)·2**-52·D is over twice that, and what it has to
spare covers the roundings of the tests below. The summary counts an
emission at t0 when:

- every non-tree send arrives more than 2τ after its receiver's first
  receipt, in offsets (its slack), so the strict-arrival check holds;
- t0 + M + τ < the replay's horizon, so every arrival is counted;
- t0 + M + τ < t0's next whole second, so every arrival lands in t0's
  second.

Then the emission's counts are the summary's totals, all in t0's second.
Otherwise the two passes of a walk run, and count each send into the
vectors of its arrival second, which `_add_vectors` adds to the log's rows
in one pass. A flood that crosses a second walks: where only the third
test fails, the first two still hold, so the walk cannot fail. An origin
that emits once builds no summary, and a summary lives as long as its
template: the origin's run or its kept result.

A summary's emissions are added to the log only at the end of the run.
Each is recorded in the summary's pending difference map for its kind,
{second: change in copies per second}: `copies` more from t0's second on,
and `copies` fewer from the next. An origin that emits the same copies
every second cancels its own changes, so a steady stretch leaves two
nonzero changes. When the origin's run ends, each nonzero change and the
totals scaled by it are folded into per-kind changes by second
(`_fold_runs`). At the end of the run one sweep per kind in second order
keeps the running (dup, in, out) vector and adds it to the rows of each
second it covers (`_add_runs`). The stored totals are never changed, and
integer additions commute, so the log is the one that adding each emission
at once gives. What waits grows with the seconds a summary emits in, not
with the emissions.

Messages that always flood (the kinds outside the squelchable set: all of
them under the flood policy, transactions by default under the squelch
policy) never touch slot or downlink state; they replay over the latency
maps. A squelchable emission at `t0` is a squelch round, which
`squelch_round` replays once none of the origin's deliveries or control
messages is in flight. It runs over the pruned adjacency, in which each
node keeps the peers whose downlink squelch has elapsed by `t0`. That
adjacency is kept live, one link at a time: taking a squelch cuts the link
q→w and pushes (x, q, w), its expiry, onto a heap of pending downlink
expiries; an unsquelch mends the link; and a round first pops the entries
due by `t0` and mends their links. An entry is stale, and only popped,
unless q's downlink still holds x for w. With no live link cut, the round
runs over the latency maps and their template. A pruned template is built
fresh at `t0`; the latency maps' template is built by its first emission
and kept. A later round over the kept template that passes the offset
summary's three tests is counted from the summary, deferred like a repeat
emission; every copy then lands in t0's second and before the horizon, by
t0 + M + τ, which stands in for the round's latest arrival. Its senders
are each node's peers but its tree children, listed from the tree for
that round only, and the first receipts are recomputed along the tree, as
the walk's first pass does, only when a slot acts. Any other round is
counted by the closed form or the walk. Either way every copy that arrives
before `duration_ms` feeds the receiver's slot. The three list the senders
in different orders; no order is needed, since an acting slot sorts its
copies by arrival and a counting slot's increments commute. Two kinds of
expiry may fall inside the round's flood:

- A downlink expiry is not an event: `relay_targets` compares it at send
  time, and one that equals `now` has elapsed. So a pruned link q→w whose
  downlink expiry x is after `t0` is a conditional send, sent exactly when
  x ≤ f_q, q's first receipt, unless w is q's tree parent, to which q never
  sends. Before f_q only a squelch of this round can change q's downlink,
  which the drop rule below covers. The live entries of the pending-expiry
  heap, read in order without popping up to the round's latest arrival,
  name these sends; equal entries, one squelch taken twice, send once. A
  sent copy must arrive strictly after f_w: then it is a duplicate and the
  tree stays the template's. It is counted in its arrival second and feeds
  w's slot like the walk's sends.
- A slot expiry is a heap event at its owner w, at x. Its one effect, when
  it is live (w's slot still squelches that peer until x), is to reset w's
  slot, which changes only how the slot takes the copies that reach w
  after x; a stale one is skipped, as on the heap. The expiries due by the
  round's last arrival are a prefix of the origin's heap, read in order
  without popping (`_in_order`). Each joins its owner's feed at x, and the
  replay pops them. They were pushed before the emission and every copy of
  the round after it, so an expiry at the time of a copy goes first, as on
  the heap. Expiries at different nodes touch different slots and commute,
  and one at a node that has left is consumed unseen. Later expiries stay
  on the heap, after every copy of the round.

Each slot that is fed or has an expiry due is then one of three cases:

- Quiet: it has selected every sender, or has filled its selection and
  still squelches every other sender (a squelch that ends by a copy's
  arrival has its expiry due, so that slot acts). `on_validator_message`
  then returns nothing and changes at most an already selected peer's
  count, which nothing reads, so the slot is left as it is.
- Counting: it is still counting (or not created yet), some sender is not
  among its selected peers, and it cannot fill its selection: the batch's
  k copies from each sender stay below the fewest that fill it
  (`_fill_at`: as many of its most counted unselected senders as it has
  seats left reach `count_threshold`; a slot with too few unselected
  senders never fills). It returns no action, and its feeds are counter
  increments and set inserts, which commute: applied at once, they leave
  the slot as the event loop leaves it after its last copy, in whatever
  order its copies arrive, ties included.
- Acting: any other slot may act in this round, and so does every slot with
  an expiry due. A counting slot may fill its selection and squelch the
  other peers it counted (a fill round), a selected slot hears from a peer
  it has neither selected nor squelched (a straggler round), or a reset
  slot counts again.

A round whose slots are all quiet, and whose copies all arrive before the
earliest downlink expiry after `t0` (the pending-expiry heap's top), slot
squelch expiry and the horizon, is kept for later emissions up to that
time, which `replay` counts. No control or squelchable copy is in flight at
`t0`; later ones come only from a slot action or an emission that falls
back to the event loop, and either drops the kept round, as do a control
delivery and a live expiry. Any other round serves this emission alone, and
its copies must arrive before its window ends: at the round's next
emission, pushed only after this one returns, the horizon, or the origin's
first heap event that is not a slot expiry (an emission or a disconnect).
Inside that window no other event of the origin runs but the expiries
above, so each slot sees exactly the copies and resets it would see on the
heap. Without an acting slot no feed returns an action, so the relay
targets stay fixed and the flood is the template's, with its conditional
sends.

A round counted from the summary whose fed slots are quiet or counting, and
some counting, is owed to the slots: its increments are not applied, and
the origin keeps the copies per sender owed and the budget, the fewest
copies per sender at which one of those slots may fill. Each later round
over the kept template passes the summary's tests again; it is owed too,
and counts nothing but the summary's deferral, while the copies owed with
its k stay below the budget, every copy lands before its next emission and
no heap entry of the origin is due by t0 + M + τ. A slot's feed in such a
run is the same every round, its tree's senders, so R rounds of k copies
come to one increment of k × R per counting slot and unselected sender,
and quiet slots stay quiet: no link is cut, so no slot squelch is live.
The owed copies are applied (`settle`) by the first thing of the origin
that reads a slot:

- a squelch round that is not owed, before it classifies its slots: a
  round that may fill or has an expiry due, one over a pruned or fresh
  template, or one that falls back to the event loop;
- any popped heap event but an emission: a delivery, a control message, a
  slot expiry (live or stale) or a disconnect, whose uplink loss reads the
  neighbours' slots and which drops the template.

The end of the origin's run reads no slot, and its slots are dropped with
the owed copies.

An acting slot's squelches reach peers while the round's copies are in
flight, yet every first receipt stays the pruned template's, for three
reasons:

- a slot acts only on a copy of this round, so never before its node w's
  first receipt f_w;
- its squelch reaches a peer p only after that, one link latency later;
- so the squelch can only stop p's later send back to w, which would
  arrive after f_w and be a duplicate.

Each acting slot, on a copy, is fed its node's (arrival, sender) copies,
the `k` copies of an arrival in one `on_validator_message(..., copies=k)`
call, which leaves the slot and returns the actions that k calls of one
copy would, and its expiries due, in time order, through the real
`on_validator_message` and `on_squelch_expired`. A send
q→w, conditional or not, is dropped exactly when w's squelch reached q
strictly before f_q; it is subtracted from the counts of its arrival
second (a round counted from the summary subtracts it from the log's rows,
all in t0's second), and it is never a tree send (w's tree parent relays
before f_w, so before w can act). Each squelch control that arrives before `duration_ms`
is counted, and applied with `on_squelch_received` at its arrival. The
caller pushes the new squelch expiries after the round's next emission, in
the order the slots acted: the event loop pushes them in that order, after
that emission. The round falls back to the event loop, having touched no
slot, downlink, heap entry or count, when the insertion sequence would
decide an order, or an effect would outlast the window:

- copies from two senders reach an acting slot's node at the same time;
- a squelch reaches p exactly at f_p, and w is not p's tree parent;
- two nodes act at the same time;
- a control message arrives at or after the window end, before
  `duration_ms`;
- a new slot squelch expires at or before the window end (its downlink
  expiry comes one latency later);
- a conditional send is sent and arrives at or before its receiver's first
  receipt;
- a round that is not kept has a copy that arrives at or after its window
  end;
- as for any walk, an arrival lands in [horizon, `duration_ms`) or a
  duplicate does not arrive strictly after its receiver's first receipt.

Identical config and seed produce a bit-identical metrics log: the loop is
single-threaded, all tie-breaks go through the insertion sequence, and the
only randomness is the seeded topology generation upstream.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from itertools import chain, count
from math import inf, isfinite
from operator import add
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
        # Live neighbours, in ascending id order, and the latency to each:
        # the graph's own map, shared by every origin's run, until a
        # disconnect replaces it with a copy without the leaving node, before
        # any later event. So a live node's `latency` names live nodes only,
        # and it is never changed in place. Sends go to its keys,
        # control actions to peers that fed a slot while in it
        # (`on_uplink_lost` forgets a lost peer): no send tests liveness.
        self.latency = latency
        # {peer: expiry}: the squelches this node's peers sent it.
        self.downlink: dict[int, float] = {}
        self.slot: Slot | None = None
        self.seen: set[int] = set()  # ids of the messages held
        self.live = True


class _Nodes(dict):
    """{node id: NodeState} of one origin's run, each state made on first
    touch over the node's current map in `latency`."""

    __slots__ = ("latency",)

    def __init__(self, latency: dict[int, dict[int, float]]):
        super().__init__()
        self.latency = latency

    def __missing__(self, node_id: int) -> NodeState:
        node = self[node_id] = NodeState(node_id, self.latency[node_id])
        return node


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


def _build_template(adjacency: dict[int, dict[int, float]], origin: int, t0: float):
    """Build the template of one message flooded alone from `origin` at t0,
    each node sending to its peers in `adjacency` ({node: {peer: latency}})
    in the event loop's (time, insertion sequence) order. Returns (order,
    parent, first, latest): the first-receipt order (origin first), the
    first sender and first receipt of every node reached, and the latest
    arrival of any send. Nothing is counted here: `_walk`, or the closed
    form of a latency-map flood (`_tree_counts`), counts the emission over
    the finished tree.

    A send is pushed only when it may be its receiver's first copy: when it
    arrives strictly earlier than every copy pushed to that node so far
    (`best`). Any other send is a duplicate, or ties with a copy pushed
    before it, which the insertion sequence puts first; leaving it out keeps
    the relative sequence of the rest.
    """
    first: dict[int, float] = {}
    parent: dict[int, int | None] = {}
    order: list[int] = []
    best = dict.fromkeys(adjacency, inf)  # each node's earliest copy pushed so far
    best[origin] = t0
    latest = -inf
    heap: list[tuple[float, int, int | None, int]] = [(t0, -1, None, origin)]
    seq = 0
    while heap:
        at, _, src, dst = heappop(heap)
        if dst in first:
            continue
        first[dst] = at
        parent[dst] = src
        order.append(dst)
        for w, lat in adjacency[dst].items():
            if w == src:
                continue
            t = at + lat
            if t > latest:
                latest = t
            if t < best[w]:
                best[w] = t
                heappush(heap, (t, seq, dst, w))
                seq += 1
    return order, parent, first, latest


def _tree_counts(order: list[int], parent: dict[int, int | None],
                 adjacency: dict[int, dict[int, float]], index: dict[int, int],
                 fed: dict[int, list[int]] | None = None,
                 ) -> tuple[list[int], list[int], list[int]]:
    """The (dup, in, out) count vectors over `index` of one flood along the
    tree (`order`, `parent`) over a symmetric `adjacency`, every send
    counted: each node reached sends to every peer but its parent, takes a
    copy from every peer that is not its child, and all but its first copy
    (all of them at the origin) are duplicates. With `fed`, also sets
    fed[node] to those senders, for each node that has any."""
    width = len(index)
    dup, into, out = [0] * width, [0] * width, [0] * width
    children = dict.fromkeys(order, 0)
    for v in order[1:]:
        children[parent[v]] += 1
    for v in order:
        i = index[v]
        peers = adjacency[v]
        relayed = parent[v] is not None
        out[i] = len(peers) - relayed
        into[i] = len(peers) - children[v]
        dup[i] = into[i] - relayed
        if fed is not None and into[i]:
            fed[v] = [u for u in peers if parent[u] != v]
    return dup, into, out


def _walk(tmpl, adjacency: dict[int, dict[int, float]], t0: float, horizon: float,
          duration: float, log: MetricsLog, fed: dict[int, list[int]] | None = None):
    """Count one message that the origin of template `tmpl` emits at t0
    and every node sends to its peers in `adjacency`, send by send: the
    engine's one per-send counter. It recomputes the first receipts along
    the tree, then walks every other send, each a duplicate that must
    arrive strictly after its receiver's tree copy for the tree to be the
    event loop's first-receipt tree at t0. Returns (first receipts,
    {second: (dup, in, out) count vectors over `log`'s node index}, latest
    arrival before `duration`), or None when that check fails or an arrival
    lands in [horizon, duration). With `fed`, also appends the sender of
    every send before `duration` to fed[receiver]."""
    order, parent = tmpl[0], tmpl[1]
    index = log.index
    first = {order[0]: t0}
    seconds = defaultdict(log.rows.default_factory)
    latest = -inf
    # Most sends land in t0's second: its vectors are bound once, so a
    # send there looks up no second.
    s0 = int(t0 // 1000)
    next_second = 1000.0 * (s0 + 1)
    vectors_s0 = seconds[s0]
    for v in order[1:]:
        p = parent[v]
        t = first[p] + adjacency[p][v]
        first[v] = t
        if t >= horizon:
            if t >= duration:
                continue
            return None
        if t > latest:
            latest = t
        _, in_s, out_s = seconds[int(t // 1000)]
        out_s[index[p]] += 1
        in_s[index[v]] += 1
        if fed is not None:
            fed[v].append(p)
    for u in order:
        fu = first[u]
        if fu >= duration:
            continue
        pu = parent[u]
        iu = index[u]
        for w, lat in adjacency[u].items():
            if w == pu or parent[w] == u:
                continue
            t = fu + lat
            if t >= horizon:
                if t >= duration:
                    continue
                return None
            if t <= first[w]:
                return None
            if t > latest:
                latest = t
            dup_s, in_s, out_s = vectors_s0 if t < next_second else seconds[int(t // 1000)]
            out_s[iu] += 1
            iw = index[w]
            dup_s[iw] += 1
            in_s[iw] += 1
            if fed is not None:
                fed[w].append(u)
    return first, seconds, latest


class _OffsetSummary(NamedTuple):
    """A template's emission at t=0 (`_offset_summary`). `totals` holds, in
    the log's row order (dup, in, out), each node's duplicates, copies taken
    and sends, a count per node index. `pending` holds, per kind, the
    emissions counted from `totals` and not yet added to the log, as a
    difference map {second: change in copies per second}."""

    depth: int  # K, the deepest first receipt's hop count
    latest: float  # M, the latest arrival offset
    slack: float  # least gap from a non-tree arrival back to its receiver's first receipt
    totals: tuple[list[int], list[int], list[int]]
    pending: defaultdict[MessageKind, Counter]

    def margin(self, duration: float) -> float:
        """τ: twice the most a replayed time can differ from t0 + offset."""
        return (2 * self.depth + 4) * 2**-52 * duration


def _offset_summary(tmpl, adjacency: dict[int, dict[int, float]],
                    origin: int, index: dict[int, int]) -> _OffsetSummary:
    """The offset summary of template `tmpl` (order and parent first, as
    `_build_template` returns them) over `adjacency`, counted over `index`,
    the log's node index: the template's emission at t=0, its offsets
    recomputed from 0 along the tree with the same float additions as a
    walk."""
    order, parent = tmpl[0], tmpl[1]
    off = {origin: 0.0}
    depth = {origin: 0}
    for v in order[1:]:
        p = parent[v]
        off[v] = off[p] + adjacency[p][v]
        depth[v] = depth[p] + 1
    width = len(index)
    dup, into, out = [0] * width, [0] * width, [0] * width
    latest, slack = 0.0, inf
    for u in order:
        fu = off[u]
        pu = parent[u]
        iu = index[u]
        for w, lat in adjacency[u].items():
            if w == pu:
                continue
            iw = index[w]
            out[iu] += 1
            into[iw] += 1
            if parent[w] == u:
                t = off[w]
            else:
                t = fu + lat
                dup[iw] += 1
                if t - off[w] < slack:
                    slack = t - off[w]
            if t > latest:
                latest = t
    return _OffsetSummary(max(depth.values()), latest, slack, (dup, into, out),
                          defaultdict(Counter))


def _offset_replay(summary: _OffsetSummary, t0: float, batch, horizon: float,
                   duration: float) -> bool:
    """Defer `batch`, (kind, copies) pairs emitted at t0, onto `summary`'s
    pending changes when its margin decides every arrival and the flood
    lands in t0's second (see the module docstring): that second's counts
    are the stored totals, added by `_add_runs` at the end of the run.
    Returns False, having counted nothing, otherwise; an empty batch only
    tests."""
    tau = summary.margin(duration)
    reach = summary.latest + tau
    s0 = int(t0 // 1000)
    if summary.slack <= 2 * tau or t0 + reach >= horizon or 1000.0 * (s0 + 1) - t0 <= reach:
        return False
    for kind, copies in batch:
        at = summary.pending[kind]
        at[s0] += copies
        at[s0 + 1] -= copies
    return True


def _fold_runs(changes: defaultdict[MessageKind, dict], deferred: list) -> None:
    """Fold `deferred`, (totals, {kind: {second: change in copies}}) pairs
    (`_offset_replay`), into `changes`, per kind {second: [emissions, dup,
    in, out]}: each nonzero change and the totals scaled by it. Empties
    `deferred`; the totals are never changed."""
    for totals, pending in deferred:
        for kind, pending_at in pending.items():
            at = changes[kind]
            for s, n in pending_at.items():
                if not n:
                    continue
                scaled = [[n * c for c in counts] for counts in totals]
                if (change := at.get(s)) is None:
                    at[s] = [n, *scaled]
                else:
                    change[0] += n
                    for vec, delta in zip(change[1:], scaled):
                        vec[:] = map(add, vec, delta)
    deferred.clear()


def _add_runs(log: MetricsLog, changes: defaultdict[MessageKind, dict]) -> None:
    """Add the deferred emissions folded into `changes` (`_fold_runs`) to
    `log`: one sweep per kind in second order keeps the running (dup, in,
    out) vector and adds it to the rows of every second that a run covers."""
    for kind, at in changes.items():
        seconds = sorted(at)
        active, running = 0, log.rows.default_factory()
        for s, end in zip(seconds, seconds[1:]):
            n, *deltas = at[s]
            active += n
            for vec, delta in zip(running, deltas):
                vec[:] = map(add, vec, delta)
            if active:
                for second in range(s, end):
                    for row, vec in zip(log.rows[second, kind], running):
                        row[:] = map(add, row, vec)


def _add_vectors(log: MetricsLog, seconds, batch) -> None:
    """Add one emission's counts, (second, (dup, in, out) count vectors over
    the log's node index) pairs, to `log`, `copies` times for each (kind,
    copies) pair of `batch`."""
    for s, vectors in seconds:
        for kind, copies in batch:
            for row, vec in zip(log.rows[s, kind], vectors):
                row[:] = map(add, row, vec if copies == 1 else [n * copies for n in vec])


def _fill_at(slot: Slot, senders: list[int], protocol: ProtocolConfig) -> float:
    """The fewest copies from each of `senders` with which counting `slot`
    fills its selection: its most counted unselected senders, as many as it
    has seats left, reach `count_threshold`. inf when too few of `senders`
    are unselected."""
    need = protocol.max_selected - len(slot.selected)
    counts = sorted((slot.per_peer_count.get(u, 0) for u in senders if u not in slot.selected),
                    reverse=True)
    return protocol.count_threshold - counts[need - 1] if len(counts) >= need else inf


def _in_order(heap: list):
    """The entries of `heap` in the order `heappop` returns them, popping
    none: a walk of the heap's tree that always takes the least entry next."""
    frontier = [(heap[0], 0)] if heap else []
    while frontier:
        entry, i = heappop(frontier)
        yield entry
        for child in (2 * i + 1, 2 * i + 2):
            if child < len(heap):
                heappush(frontier, (heap[child], child))


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
    disconnect_times = sorted((d.at_ms for d in cfg.disconnects if d.at_ms < duration),
                              reverse=True)
    always_flood = APPLICATION_KINDS - squelch_kinds
    # Each batch's (kind, copies) pairs with copies, split once per run into
    # the kinds that always flood and the squelchable ones.
    round_parts, tx_parts = (
        tuple([(kind, copies) for kind, copies in batch if copies and kind in part]
              for part in (always_flood, squelch_kinds))
        for batch in (round_batch, tx_batch))

    log = MetricsLog(
        policy=cfg.relay_policy.value,
        seed=cfg.seed,
        config_hash=cfg.config_hash,
        warmup_ms=cfg.warmup_ms,
        duration_ms=cfg.duration_ms,
        message_sizes=sizes,
        nodes=graph.nodes,
    )
    rows, index = log.rows, log.index  # per (second, kind): (dup, in, out) rows
    msg_ids = count()
    seq = 0
    # Deliveries and control messages pushed and not yet popped.
    in_flight = 0
    # Per kind, {second: [emissions, dup, in, out]}: where the per-second
    # counts of the emissions deferred to the end of the run change.
    changes: defaultdict[MessageKind, dict] = defaultdict(dict)

    # The helpers act on the current origin's `origin`, `nodes`, `heap`, `template`.

    def push(at: float, code: int, node: int, kind, peer, arg) -> None:
        nonlocal seq, in_flight
        if at < duration:
            heappush(heap, (at, seq, code, node, kind, peer, arg))
            seq += 1
            if code <= _DELIVER_CTRL:
                in_flight += 1

    def forward(node: NodeState, kind: MessageKind, msg_id: int,
                arrived_from: int | None, at: float) -> None:
        """`node` takes message `msg_id` and sends it on to its relay targets;
        the origin passes arrived_from=None."""
        nonlocal seq, in_flight
        node.seen.add(msg_id)
        src = node.node_id
        lat = node.latency
        sent = seq
        for p in relay_targets(node, kind, arrived_from, at, squelch_kinds):
            t = at + lat[p]
            if t < duration:
                heappush(heap, (t, seq, _DELIVER_APP, p, kind, src, msg_id))
                seq += 1
        in_flight += seq - sent

    def take_squelch(q: NodeState, w: int, ctrl: ControlMessage, at: float) -> None:
        """`q` takes `w`'s squelch at `at`: the link q -> w is cut from the
        pruned adjacency, and its expiry goes on the pending-expiry heap."""
        on_squelch_received(q.downlink, w, ctrl, at)
        heappush(expiring, (q.downlink[w], q.node_id, w))
        own = links[q.node_id]
        if w in own:
            if own is q.latency:
                own = links[q.node_id] = dict(own)
                cut.add(q.node_id)
            del own[w]

    def mend(q: int, w: int) -> None:
        """Put the live link q -> w back into the pruned adjacency."""
        own, lat = links[q], latency[q]
        if w in lat and w not in own:
            own[w] = lat[w]
            if len(own) == len(lat):
                links[q] = lat
                cut.discard(q)

    def new_template(t0: float, adjacency: dict[int, dict[int, float]],
                     fed: dict[int, list[int]] | None = None):
        """Build the origin's template over `adjacency` at its emission at t0
        (`_build_template`) and count that emission. Returns (record,
        walked): the record [order, parent, offset summary], and the
        emission's counts as `_walk` returns them, or None. A flood over the
        latency maps whose every send lands before t0's next whole second
        and the horizon (at most `duration_ms`) is counted from the tree
        (`_tree_counts`), ties included; with `fed`, each node's senders are
        its peers but its children. Any other build is walked. The summary
        is built by the template's first `replay`."""
        built = _build_template(adjacency, origin, t0)
        if built is None:  # as a patched builder returns, to force the event loop
            return None, None
        order, parent, first, latest = built
        tmpl = [order, parent, None]
        s0 = int(t0 // 1000)
        if adjacency is latency and latest < min(1000.0 * (s0 + 1), horizon):
            seconds = defaultdict(rows.default_factory)
            seconds[s0] = _tree_counts(order, parent, adjacency, index, fed)
            return tmpl, (first, seconds, latest)
        return tmpl, _walk(tmpl, adjacency, t0, horizon, duration, log, fed)

    def summary_of(tmpl: list, adjacency: dict[int, dict[int, float]]) -> _OffsetSummary | None:
        """The offset summary of template record `tmpl` over `adjacency`,
        built at its first use."""
        summary = tmpl[2]
        if summary is None:
            summary = tmpl[2] = _offset_summary(tmpl, adjacency, origin, index)
            if summary:
                deferred.append((summary.totals, summary.pending))
        return summary

    def replay(t0: float, batch: list[tuple[MessageKind, int]], tmpl: list,
               adjacency: dict[int, dict[int, float]], horizon: float) -> bool:
        """Count `batch`, (kind, copies) pairs of messages that the origin
        emits at t0 and that every node sends to its peers in `adjacency`,
        from `tmpl`, their template record, already used by the emission it
        was built at: from its offset summary where that is exact, else by a
        walk. Returns False, having counted nothing, when the template tree
        is not provably the event loop's first-receipt tree at t0 or an
        arrival lands in [horizon, duration)."""
        summary = summary_of(tmpl, adjacency)
        if summary and _offset_replay(summary, t0, batch, horizon, duration):
            return True
        if walked := _walk(tmpl, adjacency, t0, horizon, duration, log):
            _add_vectors(log, walked[1].items(), batch)
        return bool(walked)

    def kept_end() -> float:
        """The end of a quiet round's window: the earliest downlink expiry
        after its t0 (the pending-expiry heap's top, once the round has
        mended its links), slot squelch expiry or the horizon."""
        return min(chain([horizon, expiring[0][0] if expiring else inf],
                         *(node.slot.squelched.values() for node in nodes.values() if node.slot)))

    def count_copies(slot: Slot, senders, k: int) -> None:
        """`slot`, counting and unable to fill, takes `k` copies from each
        of `senders` at once: counter increments and set inserts, which
        commute."""
        per_peer, selected = slot.per_peer_count, slot.selected
        for u in senders:
            if u not in selected:
                n = per_peer[u] = per_peer.get(u, 0) + k
                if n >= protocol.count_threshold:
                    selected.add(u)
                    slot.squelched.pop(u, None)

    def tree_fed() -> dict[int, list[int]]:
        """The senders of each node in a round over the latency maps' kept
        template, for each node that has any: its peers but its tree
        children."""
        order, parent = template[0], template[1]
        return {w: senders for w in order
                if (senders := [u for u in latency[w] if parent[u] != w])}

    def settle() -> None:
        """Apply the copies owed by the origin's counting rounds over its
        kept latency-map template: every counting slot that the template
        feeds takes them from each sender."""
        nonlocal owed, budget
        if owed:
            for w, senders in tree_fed().items():
                node = nodes[w]
                slot = node.slot = node.slot or Slot(owner=w, origin_validator=origin)
                if slot.state is SlotState.COUNTING:
                    count_copies(slot, senders, owed)
            owed = budget = 0

    def squelch_round(t0: float, batch: list[tuple[MessageKind, int]],
                      next_round: float) -> list[tuple[float, int, int]] | None:
        """Replay `batch`, (kind, copies) pairs of squelchable messages that
        the origin emits at t0, over the pruned template, and apply their
        copies and the slot expiries due meanwhile to the slots, or owe
        the copies to them (see the module docstring). `next_round` is the
        round's next emission, not pushed yet. Returns the round's squelch
        expiries before `duration_ms`, (at, owner, peer) in the order the
        slots acted, for the caller to push after that emission; or None,
        having changed nothing but applying the owed copies, when the round
        must run on the event loop."""
        nonlocal template, steady, owed, budget
        if steady is not None and t0 < steady[2] and replay(t0, batch, *steady):
            return []
        steady = None
        if in_flight:
            return None
        # Links whose squelch has elapsed by t0 are mended; stale entries
        # (the squelch was renewed or lifted meanwhile) are dropped.
        while expiring:
            x, q, w = expiring[0]
            live = nodes[q].downlink.get(w) == x
            if live and x > t0:
                break
            heappop(expiring)
            if live:
                mend(q, w)
        k = sum(copies for _, copies in batch)
        fed: dict[int, list[int]] = defaultdict(list)
        summed = False
        if cut:
            adjacency = links
            tmpl, walked = new_template(t0, links, fed)
        else:
            adjacency = latency
            if template is None:
                template, walked = new_template(t0, latency, fed)
            elif ((summary := summary_of(template, latency))
                  and _offset_replay(summary, t0, (), horizon, duration)):
                # Counted from the summary: every copy lands in t0's second,
                # by `reach`.
                summed = True
                reach = t0 + (summary.latest + summary.margin(duration))
                # Owed while no counting slot can fill, and no other event
                # of the origin falls in its flood.
                if owed + k < budget and reach < next_round and not (heap and heap[0][0] <= reach):
                    owed += k
                    _offset_replay(summary, t0, batch, horizon, duration)
                    return []
                fed = tree_fed()
                walked = None, defaultdict(rows.default_factory), reach
            else:
                walked = _walk(template, latency, t0, horizon, duration, log, fed)
            tmpl = template
        settle()
        if walked is None:
            return None
        first, seconds, latest = walked
        parent = tmpl[1]
        # A pruned link q -> w is sent when its squelch has elapsed at q's
        # first receipt: a duplicate at w, counted and fed like the walk's.
        # Its pending entry falls after t0 and by the latest arrival; equal
        # entries, one squelch taken twice, are adjacent and send once.
        bound, prev = latest, None
        for entry in _in_order(expiring) if cut else ():
            x, q, w = entry
            if x > bound:
                break
            if entry == prev:
                continue
            prev = entry
            fq = first.get(q, inf)
            lat = latency[q]
            if (x <= fq < duration and w in lat and parent[q] != w
                    and nodes[q].downlink.get(w) == x):
                t = fq + lat[w]
                if t >= duration:
                    continue
                if t >= horizon or t <= first.get(w, inf):
                    return None
                latest = max(latest, t)
                dup_s, in_s, out_s = seconds[int(t // 1000)]
                out_s[index[q]] += 1
                dup_s[index[w]] += 1
                in_s[index[w]] += 1
                fed[w].append(q)
        # The window ends at the round's next emission, the horizon or the
        # origin's first heap event that is not a slot expiry. The expiries
        # due by the last arrival, a prefix of the heap, join their owners'
        # feeds; those of a node that has left are consumed unseen.
        window = min(next_round, horizon)
        due: dict[int, list[tuple[float, int, int]]] = defaultdict(list)
        used = 0
        for e in _in_order(heap):
            if e[0] >= window:
                break
            if e[2] != _SQUELCH_EXPIRY:
                window = e[0]
                break
            if e[0] <= latest:
                used += 1
                if nodes[e[3]].live:
                    due[e[3]].append((e[0], 0, e[5]))
                    fed.setdefault(e[3], [])  # its slot acts, fed or not
        # Each slot fed or with an expiry due is quiet, counts without
        # filling, or may act; one with an expiry due acts. `fills` is the
        # fewest copies per sender at which a counting slot may fill.
        counting, acting = [], []
        fills = inf
        for w, peers in fed.items():
            slot = nodes[w].slot or Slot(owner=w, origin_validator=origin)
            selected = slot.selected
            if w not in due:
                if slot.state is SlotState.SELECTED:
                    if slot.squelched.keys() >= set(peers) - selected:
                        continue
                elif selected.issuperset(peers):
                    continue
                else:
                    # No more copies than fill its selection; the bound
                    # from its highest count is cheaper, and usually exact.
                    fill = protocol.count_threshold - max(slot.per_peer_count.values(), default=0)
                    if k >= fill:
                        fill = _fill_at(slot, peers, protocol)
                    if k < fill:
                        fills = min(fills, fill)
                        counting.append((w, slot, peers))
                        continue
            # It acts on a copy, which replaces it only if the round replays.
            acting.append((w, Slot(w, origin, dict(slot.per_peer_count), set(selected),
                                   dict(slot.squelched), slot.state, slot.round_index), peers))
        if not (counting or acting) and latest < (end := kept_end()):
            steady = (tmpl, adjacency, end)
        elif latest >= window:
            return None
        if first is None and acting:
            # Counted from the summary: the first receipts along the tree,
            # with the walk's float additions.
            order = tmpl[0]
            first = {order[0]: t0}
            for v in order[1:]:
                p = parent[v]
                first[v] = first[p] + latency[p][v]
        # An acting slot is fed its node's copies, (arrival, 1, sender), and
        # its expiries due, (at, 0, peer), in time order. An expiry goes
        # before a copy at the same time: it was pushed before the emission.
        acted: list[tuple[float, int, list[tuple[int, ControlMessage]]]] = []
        for w, slot, senders in acting:
            lat = latency[w]
            reached: dict[int, float] = {}  # peer -> when this node's squelch reaches it
            last = -inf
            for t, is_copy, u in sorted([(first[u] + latency[u][w], 1, u) for u in senders]
                                        + due.get(w, [])):
                if not is_copy:
                    # Stale (reset or re-squelched meanwhile): skipped, as on the heap.
                    if slot.squelched.get(u) == t:
                        on_squelch_expired(slot, u, t)
                    continue
                if u in reached and reached[u] < first[u]:
                    # Squelched before it relayed: never sent, so never a tree send.
                    dup_s, in_s, out_s = seconds[int(t // 1000)]
                    out_s[index[u]] -= 1
                    dup_s[index[w]] -= 1
                    in_s[index[w]] -= 1
                    continue
                if t == last:
                    return None
                last = t
                actions = on_validator_message(slot, u, t, protocol, copies=k)
                if not actions:
                    continue
                acted.append((t, w, actions))
                for q, ctrl in actions:
                    # Its downlink expiry, at + duration, falls after the slot's.
                    at = t + lat[q]
                    if (t + ctrl.duration_ms <= window or window <= at < duration
                            or at == first.get(q) and parent[q] != w):
                        return None
                    reached[q] = at
        acted.sort(key=lambda a: a[0])
        if any(a[0] == b[0] and a[1] != b[1] for a, b in zip(acted, acted[1:])):
            return None
        if summed:
            if counting and not acting:
                # The counting slots take these copies at their next read.
                owed, budget, counting = k, fills, []
            _offset_replay(summary, t0, batch, horizon, duration)
        _add_vectors(log, seconds.items(), batch)
        for _ in range(used):
            heappop(heap)
        for _, slot, senders in counting:
            count_copies(slot, senders, k)
        for w, slot, _ in chain(acting, counting):
            nodes[w].slot = slot
        expiries = []
        for t, w, actions in acted:
            lat = latency[w]
            for q, ctrl in actions:
                at = t + lat[q]
                if at < duration:
                    _, in_row, out_row = rows[int(at // 1000), ctrl.kind]
                    out_row[index[w]] += 1
                    in_row[index[q]] += 1
                    take_squelch(nodes[q], w, ctrl, at)
                if t + ctrl.duration_ms < duration:
                    expiries.append((t + ctrl.duration_ms, w, q))
        return expiries

    def emit(node: NodeState, at: float,
             batch: tuple[tuple[MessageKind, int], ...]) -> list[tuple[float, int, int]]:
        """Emit `copies` messages of each kind of `batch` from the origin at
        `at`, replaying what its templates allow. Returns the squelch
        expiries of a replayed squelch round, (at, owner, peer), for the
        caller to push after the round's next emission, as the event loop
        would."""
        nonlocal template
        expiries = None
        if at < horizon:
            next_round = at + cfg.ledger_round_ms if batch is round_batch else duration
            flooded, pruned = round_parts if batch is round_batch else tx_parts
            replayed = not flooded
            if flooded:
                if template is None:
                    template, walked = new_template(at, latency)
                    if walked:
                        _add_vectors(log, walked[1].items(), flooded)
                else:
                    walked = replay(at, flooded, template, latency, horizon)
                replayed = bool(walked)
            expiries = squelch_round(at, pruned, next_round) if pruned else []
            if expiries is not None:
                if replayed:
                    return expiries
                batch = flooded
            elif replayed:
                batch = pruned
        for kind, copies in batch:
            for _ in range(copies):
                forward(node, kind, next(msg_ids), None, at)
        return expiries or []

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

    graph_latency = {n: graph.neighbors(n) for n in graph.nodes}
    for origin in sorted(emissions):
        # The nodes share the graph's latency maps; a disconnect replaces
        # its neighbours' maps with filtered copies.
        latency = dict(graph_latency)
        nodes = _Nodes(latency)
        # The pruned adjacency, kept live: a node's latency map, or a copy
        # without the peers whose squelch it holds (the nodes in `cut`).
        links = dict(latency)
        cut: set[int] = set()
        # (expiry, node, peer) of every squelch taken; an entry is stale
        # once the node's downlink no longer holds that expiry for the peer.
        expiring: list[tuple[float, int, int]] = []
        # The template record over `latency` (new_template), built at the
        # first emission that replays.
        template = None
        # (template, adjacency, window end) of a quiet squelch round, kept
        # for later emissions until its window ends.
        steady = None
        # Copies per sender that the counting slots owe to the latency-map
        # template's rounds, and the fewest at which one of them may fill.
        owed = budget = 0
        # The disconnects still on the heap, latest first: replayed arrivals
        # must land before the next, which changes the live sets.
        disconnects_left = list(disconnect_times)
        horizon = disconnects_left[-1] if disconnects_left else duration
        heap: list[tuple] = []
        # (totals, pending) of the origin's offset summaries.
        deferred: list[tuple] = []
        for at, batch in emissions[origin]:
            push(at, _EMIT, origin, None, None, batch)
        for disc in cfg.disconnects:
            push(disc.at_ms, _DISCONNECT, disc.node, None, None, None)

        while heap:
            at, _, code, dst, kind, peer, arg = heappop(heap)
            if owed and code != _EMIT:
                settle()
            node = nodes[dst]
            if code <= _DELIVER_CTRL:
                in_flight -= 1
            elif code == _DISCONNECT:
                disconnects_left.pop()
                horizon = disconnects_left[-1] if disconnects_left else duration
            if not node.live:
                continue
            if code <= _DELIVER_CTRL:
                dup_row, in_row, out_row = rows[int(at // 1000), kind]
                out_row[index[peer]] += 1
                in_row[index[dst]] += 1
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
                        dup_row[index[dst]] += 1
                    else:
                        forward(node, kind, arg, peer, at)
                else:
                    steady = None
                    if kind is MessageKind.SQUELCH:
                        take_squelch(node, peer, arg, at)
                    else:
                        on_unsquelch_received(node.downlink, peer, arg)
                        mend(dst, peer)

            elif code == _EMIT:
                expiries = emit(node, at, arg)
                if arg is round_batch:
                    push(at + cfg.ledger_round_ms, _EMIT, dst, None, None, round_batch)
                for expiry, owner, squelched in expiries:
                    push(expiry, _SQUELCH_EXPIRY, owner, None, squelched, expiry)

            elif code == _SQUELCH_EXPIRY:
                # Stale expiries (slot reset or re-squelch meanwhile) are skipped.
                if node.slot.squelched.get(peer) == arg:
                    on_squelch_expired(node.slot, peer, at)
                    steady = None

            else:  # _DISCONNECT
                node.live = False
                # Its squelches expire unseen: no quiet window may wait on them.
                node.slot = None
                node.downlink.clear()
                template = steady = None
                cut.discard(dst)
                for nb_id in node.latency:
                    nb = nodes[nb_id]
                    nb.latency = latency[nb_id] = {p: lat for p, lat in nb.latency.items()
                                                   if p != dst}
                    own = links[nb_id]
                    if nb_id in cut:
                        own.pop(dst, None)
                    if nb_id not in cut or len(own) == len(nb.latency):
                        links[nb_id] = nb.latency
                        cut.discard(nb_id)
                    if nb.slot is not None:
                        send_controls(nb, on_uplink_lost(nb.slot, dst, at), at)

        _fold_runs(changes, deferred)

    _add_runs(log, changes)
    return log
