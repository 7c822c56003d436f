"""Relay-suppression state machine kept per (node, origin validator).

Each node counts, per remote validator, how many message copies every peer
delivers. The first peers to accumulate enough copies become the selected
relayers; everyone else who relayed gets a timed squelch request and stops
forwarding that validator's messages to us. Expiry, or the loss of a
selected uplink, returns the slot to a fresh counting round. Once selected,
a slot changes only for a copy from a peer that is neither selected nor
under an unexpired squelch.

A node's downlink map for one origin, `{peer: expiry}`, holds the squelches
its peers sent it: a peer gets none of the origin's messages before then.

This module is a pure state-transition library: it performs no I/O and owns
no timers. Callers inject the current simulated time. State objects are
mutated in place and owned by exactly one simulated node; a transition
returns only what is new, the control actions to send, or nothing.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from enum import Enum

from .messages import APPLICATION_KINDS, MessageKind


class SlotState(Enum):
    COUNTING = "counting"
    SELECTED = "selected"


# Members bound once: the transitions below run millions of times per run,
# and an identity test against a name is cheaper than an attribute lookup
# or a set membership test of an Enum member.
_COUNTING = SlotState.COUNTING
_SELECTED = SlotState.SELECTED
_SQUELCH = MessageKind.SQUELCH
_UNSQUELCH = MessageKind.UNSQUELCH
_pack_duration_key = struct.Struct("<qqq").pack


class ContractViolationError(RuntimeError):
    """An operation was invoked outside its stated precondition."""


@dataclass(frozen=True)
class ControlMessage:
    """Peer-to-peer request to stop (squelch) or resume (unsquelch) relaying
    one validator's messages. Never itself relayed."""

    kind: MessageKind
    origin_validator: int
    duration_ms: int = 0

    def __post_init__(self) -> None:
        kind = self.kind
        if kind is _SQUELCH:
            if self.duration_ms <= 0:
                raise ValueError("squelch duration must be positive")
        elif kind is not _UNSQUELCH:
            raise ValueError(f"{kind} is not a control kind")
        elif self.duration_ms != 0:
            raise ValueError("unsquelch carries no duration")


@dataclass(frozen=True)
class ProtocolConfig:
    count_threshold: int = 10
    max_selected: int = 3
    squelch_base_ms: int = 300_000
    squelch_jitter_ms: int = 150_000
    squelch_kinds: frozenset[MessageKind] = frozenset(
        {MessageKind.PROPOSAL, MessageKind.VALIDATION}
    )

    def __post_init__(self) -> None:
        if self.count_threshold < 1:
            raise ValueError("count_threshold must be at least 1")
        if self.max_selected < 1:
            raise ValueError("max_selected must be at least 1")
        if self.squelch_base_ms < 1:
            raise ValueError("squelch_base_ms must be positive")
        if self.squelch_jitter_ms < 0:
            raise ValueError("squelch_jitter_ms must be non-negative")
        if not self.squelch_kinds <= APPLICATION_KINDS:
            raise ValueError("squelch_kinds must be application kinds, got "
                             f"{sorted(k.value for k in self.squelch_kinds)}")


@dataclass
class Slot:
    """Relay state one node keeps for one origin validator."""

    owner: int
    origin_validator: int
    per_peer_count: dict[int, int] = field(default_factory=dict)
    selected: set[int] = field(default_factory=set)
    squelched: dict[int, float] = field(default_factory=dict)
    state: SlotState = SlotState.COUNTING
    round_index: int = 0


def squelch_duration_ms(config: ProtocolConfig, owner: int, peer: int, round_index: int) -> int:
    """Base duration plus deterministic per-(node, peer, round) jitter."""
    if config.squelch_jitter_ms == 0:
        return config.squelch_base_ms
    digest = hashlib.blake2b(_pack_duration_key(owner, peer, round_index), digest_size=8).digest()
    jitter = int.from_bytes(digest, "little") % config.squelch_jitter_ms
    return config.squelch_base_ms + jitter


def on_validator_message(
    slot: Slot,
    from_peer: int,
    now: float,
    config: ProtocolConfig,
    copies: int = 1,
) -> list[tuple[int, ControlMessage]]:
    """Count `copies` copies delivered at once and drive the selection
    automaton.

    While counting, a peer that reaches the copy threshold joins the selected
    set; once the set is full, every other peer that relayed this round gets
    exactly one squelch. Once selected, copies are no longer counted (a reset
    clears the counts), stragglers that keep relaying are squelched as they
    show up, and copies from already-squelched peers are late in-flight
    traffic and trigger nothing.

    The slot state and the actions are those of `copies` calls with one copy
    each, their actions concatenated: the copy that fills the selection is
    the last one counted, and a straggler is squelched by the first copy
    only, since its squelch outlasts `now`.

    Returns the control messages to send, ordered by peer id for
    determinism.
    """
    actions: list[tuple[int, ControlMessage]] = []
    if slot.state is _COUNTING:
        count = slot.per_peer_count.get(from_peer, 0) + copies
        slot.per_peer_count[from_peer] = count
        if count >= config.count_threshold and from_peer not in slot.selected:
            slot.selected.add(from_peer)
            # A stale squelch entry may linger if the peer raced its expiry.
            slot.squelched.pop(from_peer, None)
            if len(slot.selected) >= config.max_selected:
                slot.per_peer_count[from_peer] = max(count - copies + 1, config.count_threshold)
                slot.state = _SELECTED
                for peer in sorted(slot.per_peer_count):
                    if peer in slot.selected:
                        continue
                    if peer in slot.squelched and slot.squelched[peer] > now:
                        continue
                    actions.append(_squelch_peer(slot, peer, now, config))
    elif from_peer not in slot.selected:
        expiry = slot.squelched.get(from_peer)
        if expiry is None or expiry <= now:
            actions.append(_squelch_peer(slot, from_peer, now, config))
    return actions


def _squelch_peer(
    slot: Slot, peer: int, now: float, config: ProtocolConfig
) -> tuple[int, ControlMessage]:
    duration = squelch_duration_ms(config, slot.owner, peer, slot.round_index)
    slot.squelched[peer] = now + duration
    return peer, ControlMessage(_SQUELCH, slot.origin_validator, duration)


def on_squelch_expired(slot: Slot, peer: int, now: float) -> None:
    """Drop an elapsed squelch and open a fresh counting round.

    The whole slot resets: counts zeroed, selection cleared, so a previously
    squelched peer can win the new round. Other peers' squelches keep their
    own expiry times.
    """
    expiry = slot.squelched.get(peer)
    if expiry is None:
        raise ContractViolationError(
            f"peer {peer} has no active squelch on slot for validator {slot.origin_validator}"
        )
    if expiry > now:
        raise ContractViolationError(
            f"squelch for peer {peer} expires at {expiry}, not yet elapsed at {now}"
        )
    del slot.squelched[peer]
    _reset_to_counting(slot)


def on_squelch_received(downlink: dict[int, float], peer: int,
                        msg: ControlMessage, now: float) -> None:
    """Record that `peer` must not receive the validator's messages until
    now + duration. A repeat squelch overwrites the previous expiry."""
    if msg.kind is not _SQUELCH:
        raise ContractViolationError("on_squelch_received requires a squelch message")
    downlink[peer] = now + msg.duration_ms


def on_unsquelch_received(downlink: dict[int, float], peer: int,
                          msg: ControlMessage) -> None:
    """Resume relaying the validator's messages to `peer`. Idempotent."""
    if msg.kind is not _UNSQUELCH:
        raise ContractViolationError("on_unsquelch_received requires an unsquelch message")
    downlink.pop(peer, None)


def on_uplink_lost(slot: Slot, lost_peer: int, now: float) -> list[tuple[int, ControlMessage]]:
    """React to a disconnected peer. A slot that had it selected unsquelches
    everyone, in peer order, and restarts counting so replacement uplinks can
    be chosen; otherwise it forgets the peer's counter and its squelch, whose
    expiry must not reset a live slot later."""
    if lost_peer not in slot.selected:
        slot.per_peer_count.pop(lost_peer, None)
        slot.squelched.pop(lost_peer, None)
        return []
    unsquelch = ControlMessage(_UNSQUELCH, slot.origin_validator, 0)
    actions = [(peer, unsquelch) for peer in sorted(slot.squelched)]
    slot.squelched.clear()
    _reset_to_counting(slot)
    return actions


def _reset_to_counting(slot: Slot) -> None:
    slot.state = _COUNTING
    slot.per_peer_count.clear()
    slot.selected.clear()
    slot.round_index += 1
