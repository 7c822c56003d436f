from __future__ import annotations

import copy

import pytest

from squelchsim.engine import NodeState, relay_targets
from squelchsim.messages import MessageKind
from squelchsim.squelch import (
    ContractViolationError,
    ControlMessage,
    ProtocolConfig,
    Slot,
    SlotState,
    on_squelch_expired,
    on_squelch_received,
    on_unsquelch_received,
    on_uplink_lost,
    on_validator_message,
    squelch_duration_ms,
)


def make_slot(owner=0, validator=100):
    return Slot(owner=owner, origin_validator=validator)


def config(threshold=10, max_selected=3, jitter=0):
    return ProtocolConfig(
        count_threshold=threshold,
        max_selected=max_selected,
        squelch_base_ms=300_000,
        squelch_jitter_ms=jitter,
    )


def deliver_n(slot, peer, n, cfg, start=0.0):
    actions = []
    for i in range(n):
        acts = on_validator_message(slot, peer, start + i, cfg)
        actions.extend(acts)
    return actions


# --- control message invariants ----------------------------------------------

def test_control_message_invariants():
    with pytest.raises(ValueError):
        ControlMessage(MessageKind.SQUELCH, 3, 0)
    with pytest.raises(ValueError):
        ControlMessage(MessageKind.UNSQUELCH, 3, 10)
    with pytest.raises(ValueError, match="not a control kind"):
        ControlMessage(MessageKind.PROPOSAL, 3, 0)
    ControlMessage(MessageKind.SQUELCH, 3, 1)
    ControlMessage(MessageKind.UNSQUELCH, 3, 0)


# --- selection rounds ---------------------------------------------------------

def test_five_peer_selection_matches_workflow():
    # Peers 2, 3, 4 cross the copy threshold first; 1 and 5 relayed slower
    # and get squelched exactly when the selected set fills up.
    cfg = config(threshold=10, max_selected=3)
    slot = make_slot()
    actions = []
    for _ in range(9):
        for peer in (1, 2, 3, 4, 5):
            acts = on_validator_message(slot, peer, 0.0, cfg)
            actions.extend(acts)
    assert slot.state is SlotState.COUNTING and not actions
    for peer in (2, 3, 4):
        acts = on_validator_message(slot, peer, 9.0, cfg)
        actions.extend(acts)
    assert slot.state is SlotState.SELECTED
    assert slot.selected == {2, 3, 4}
    assert sorted(p for p, _ in actions) == [1, 5]
    assert all(m.kind is MessageKind.SQUELCH for _, m in actions)
    assert set(slot.squelched) == {1, 5}


def test_single_peer_no_one_to_squelch():
    cfg = config(threshold=1, max_selected=1)
    slot = make_slot()
    actions = on_validator_message(slot, 1, 0.0, cfg)
    assert slot.selected == {1}
    assert slot.state is SlotState.SELECTED
    assert actions == []


def test_hand_traced_order_threshold_two():
    # Arrivals P1,P1,P2,P3,P3 with threshold 2, max 2: P1 and P3 win, P2 is
    # the only counting peer left out.
    cfg = config(threshold=2, max_selected=2)
    slot = make_slot()
    actions = []
    for peer in (1, 1, 2, 3, 3):
        acts = on_validator_message(slot, peer, 0.0, cfg)
        actions.extend(acts)
    assert slot.selected == {1, 3}
    assert [p for p, _ in actions] == [2]
    assert actions[0][1].kind is MessageKind.SQUELCH


def test_selected_state_squelches_late_relayer():
    cfg = config(threshold=1, max_selected=1)
    slot = make_slot()
    on_validator_message(slot, 1, 0.0, cfg)
    assert slot.state is SlotState.SELECTED
    acts = on_validator_message(slot, 9, 1.0, cfg)
    assert [p for p, _ in acts] == [9]
    # late in-flight copy from the now-squelched peer triggers nothing
    acts = on_validator_message(slot, 9, 2.0, cfg)
    assert acts == []


def test_selected_peer_messages_no_action():
    cfg = config(threshold=1, max_selected=1)
    slot = make_slot()
    on_validator_message(slot, 1, 0.0, cfg)
    acts = on_validator_message(slot, 1, 5.0, cfg)
    assert acts == []
    # a selected slot stops counting: the count that selected peer 1 stays
    assert slot.per_peer_count[1] == 1


def test_selected_slot_unchanged_by_selected_and_squelched_peers():
    # Peers 1 and 2 are selected and 3 is squelched; copies from 1, 2 and a
    # still-squelched 3 must leave the slot exactly as it was.
    cfg = config(threshold=2, max_selected=2)
    slot = make_slot()
    for peer in (3, 1, 1, 2, 2):
        on_validator_message(slot, peer, 0.0, cfg)
    assert slot.state is SlotState.SELECTED and set(slot.squelched) == {3}
    before = copy.deepcopy(slot)
    for peer, now in ((1, 10.0), (3, 11.0), (2, 12.0), (3, slot.squelched[3] - 1)):
        assert on_validator_message(slot, peer, now, cfg) == []
    assert slot == before


# --- exhaustive arrival-order enumeration -------------------------------------
# Walks every reachable automaton state for k peers, each delivering up to
# `threshold` copies (counts clipped at the threshold: higher counts cannot
# change behavior). Asserts along every path: selected and squelched stay
# disjoint, selected never exceeds max_selected, each squelch goes to a
# never-squelched peer, and every completed path ends with exactly
# min(k, max_selected) selected and every other peer squelched.

def enumerate_all_orders(k, threshold, max_selected):
    cfg = config(threshold=threshold, max_selected=max_selected)
    initial = ((0,) * k, frozenset(), frozenset())
    seen = {initial}
    frontier = [initial]
    terminal_states = set()
    while frontier:
        counts, selected, squelched = frontier.pop()
        if all(c >= threshold for c in counts):
            terminal_states.add((selected, squelched))
            continue
        for peer in range(k):
            if counts[peer] >= threshold and (peer in selected or peer in squelched):
                # further copies from this peer cannot change anything
                continue
            slot = make_slot()
            slot.per_peer_count = {p: c for p, c in enumerate(counts) if c}
            slot.selected = set(selected)
            slot.squelched = {p: 1e18 for p in squelched}
            slot.state = (
                SlotState.SELECTED
                if len(selected) >= max_selected
                else SlotState.COUNTING
            )
            actions = on_validator_message(slot, peer, 0.0, cfg)
            for target, msg in actions:
                assert msg.kind is MessageKind.SQUELCH
                assert target not in squelched, "peer squelched twice"
                assert target not in slot.selected
            assert slot.selected.isdisjoint(slot.squelched)
            assert len(slot.selected) <= max_selected
            new_counts = list(counts)
            new_counts[peer] = min(threshold, counts[peer] + 1)
            state = (
                tuple(new_counts),
                frozenset(slot.selected),
                frozenset(slot.squelched),
            )
            if state not in seen:
                seen.add(state)
                frontier.append(state)
    return terminal_states


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("threshold", [1, 2, 3])
@pytest.mark.parametrize("max_selected", [1, 2, 3])
def test_exhaustive_selection_outcomes(k, threshold, max_selected):
    # With fewer peers than max_selected, all of them end selected.
    n_selected = min(k, max_selected)
    outcomes = enumerate_all_orders(k, threshold, max_selected)
    assert outcomes
    for selected, squelched in outcomes:
        assert len(selected) == n_selected
        assert len(squelched) == k - n_selected
        assert selected | squelched == set(range(k))


def test_copies_equal_as_many_single_copies():
    """One call with `copies=k` leaves the slot (per-peer counts, selected,
    squelched, state, round index) and returns the actions that k calls
    with one copy each leave and return, their actions concatenated: from
    counting and selected slots, with live, elapsed and stale squelches."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=500, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        draw = data.draw
        threshold, max_selected = draw(st.integers(1, 5)), draw(st.integers(1, 4))
        cfg = config(threshold, max_selected, jitter=draw(st.sampled_from([0, 700])))
        peers = st.integers(0, 6)
        slot = make_slot()
        slot.selected = draw(st.sets(peers, max_size=max_selected))
        slot.state = (SlotState.SELECTED if len(slot.selected) >= max_selected
                      else SlotState.COUNTING)
        slot.per_peer_count = draw(st.dictionaries(peers, st.integers(1, threshold + 2)))
        # Before, at and after now = 1000: stale, elapsed and live.
        slot.squelched = draw(st.dictionaries(peers, st.sampled_from([400.0, 1000.0, 1600.0])))
        slot.round_index = draw(st.integers(0, 3))
        peer, copies = draw(peers), draw(st.integers(1, 2 * threshold + 2))
        bulk = copy.deepcopy(slot)
        actions = [a for _ in range(copies) for a in on_validator_message(slot, peer, 1000.0, cfg)]
        assert on_validator_message(bulk, peer, 1000.0, cfg, copies=copies) == actions
        assert bulk == slot

    check()


# --- expiry -------------------------------------------------------------------

def test_expiry_resets_to_counting():
    cfg = config(threshold=2, max_selected=2)
    slot = make_slot()
    for peer in (1, 1, 2, 2, 3):
        on_validator_message(slot, peer, 0.0, cfg)
    assert set(slot.squelched) == {3}
    expiry = slot.squelched[3]
    on_squelch_expired(slot, 3, expiry)
    assert slot.state is SlotState.COUNTING
    assert slot.per_peer_count == {}
    assert slot.selected == set()
    assert slot.squelched == {}


def test_expiry_contract_violations():
    slot = make_slot()
    with pytest.raises(ContractViolationError):
        on_squelch_expired(slot, 1, 100.0)
    slot.squelched[1] = 500.0
    with pytest.raises(ContractViolationError):
        on_squelch_expired(slot, 1, 499.0)
    on_squelch_expired(slot, 1, 500.0)  # boundary: expiry == now is elapsed


def test_two_expiries_same_tick():
    cfg = config(threshold=1, max_selected=1)
    slot = make_slot()
    on_validator_message(slot, 1, 0.0, cfg)
    for peer in (2, 3):
        on_validator_message(slot, peer, 0.0, cfg)
    slot.squelched[2] = slot.squelched[3] = 900.0
    on_squelch_expired(slot, 2, 900.0)
    round_after_first = slot.round_index
    on_squelch_expired(slot, 3, 900.0)
    assert slot.state is SlotState.COUNTING
    assert slot.squelched == {}
    assert slot.per_peer_count == {}
    assert slot.round_index >= round_after_first


def test_reselection_after_expiry():
    # Phase 3 behavior: the squelched peer delivers fastest in the next
    # round and wins a selected seat.
    cfg = config(threshold=2, max_selected=2)
    slot = make_slot()
    for peer in (1, 1, 2, 2, 3):
        on_validator_message(slot, peer, 0.0, cfg)
    assert 3 in slot.squelched
    on_squelch_expired(slot, 3, slot.squelched[3])
    actions = deliver_n(slot, 3, 2, cfg, start=1000.0)
    assert actions == []
    assert 3 in slot.selected
    on_validator_message(slot, 2, 1001.0, cfg)  # 2 relays once, too slow
    acts = on_validator_message(slot, 1, 1002.0, cfg)
    acts = on_validator_message(slot, 1, 1003.0, cfg)
    assert slot.state is SlotState.SELECTED
    assert slot.selected == {1, 3}
    assert set(slot.squelched) == {2}
    assert [p for p, _ in acts] == [2]


# --- downlink squelch handling -------------------------------------------------

def test_squelch_received_records_expiry():
    downlink = {}
    on_squelch_received(downlink, 5, ControlMessage(MessageKind.SQUELCH, 7, 300_000), 0.0)
    assert downlink == {5: 300_000.0}


def test_squelch_received_overwrites():
    downlink = {5: 100_000.0, 6: 1.0}
    on_squelch_received(downlink, 5, ControlMessage(MessageKind.SQUELCH, 7, 50_000), 90_000.0)
    assert downlink == {5: 140_000.0, 6: 1.0}


def test_unsquelch_removes_and_is_idempotent():
    downlink = {5: 100.0, 6: 100.0}
    on_unsquelch_received(downlink, 5, ControlMessage(MessageKind.UNSQUELCH, 7, 0))
    assert downlink == {6: 100.0}
    on_unsquelch_received(downlink, 5, ControlMessage(MessageKind.UNSQUELCH, 7, 0))
    on_unsquelch_received(downlink, 5, ControlMessage(MessageKind.UNSQUELCH, 9, 0))
    assert downlink == {6: 100.0}


def test_downlink_contract_violations():
    with pytest.raises(ContractViolationError):
        on_squelch_received({}, 5, ControlMessage(MessageKind.UNSQUELCH, 7, 0), 0.0)
    with pytest.raises(ContractViolationError):
        on_unsquelch_received({}, 5, ControlMessage(MessageKind.SQUELCH, 7, 1))


def test_squelch_then_unsquelch_then_relay():
    node = NodeState(0, {4: 10.0, 5: 10.0})
    kinds = ProtocolConfig().squelch_kinds
    on_squelch_received(node.downlink, 5, ControlMessage(MessageKind.SQUELCH, 7, 1_000_000), 0.0)
    assert relay_targets(node, MessageKind.VALIDATION, None, 10.0, kinds) == [4]
    on_unsquelch_received(node.downlink, 5, ControlMessage(MessageKind.UNSQUELCH, 7, 0))
    assert relay_targets(node, MessageKind.VALIDATION, None, 10.0, kinds) == [4, 5]


# --- uplink loss ----------------------------------------------------------------

def build_selected_slot(validator, selected_peers, squelched_peers, owner=0):
    slot = Slot(owner=owner, origin_validator=validator)
    slot.selected = set(selected_peers)
    slot.squelched = {p: 1e12 for p in squelched_peers}
    slot.per_peer_count = {p: 10 for p in selected_peers}
    slot.state = SlotState.SELECTED
    return slot


def test_uplink_lost_unsquelches_affected_slot():
    slot = build_selected_slot(100, {2, 3, 4}, {1, 5})
    actions = on_uplink_lost(slot, 3, 1000.0)
    assert sorted(p for p, _ in actions) == [1, 5]
    assert all(m.kind is MessageKind.UNSQUELCH for _, m in actions)
    assert slot.state is SlotState.COUNTING
    assert slot.squelched == {}
    assert slot.selected == set()


def test_uplink_lost_untouched_slot():
    slot = build_selected_slot(100, {2, 3}, {1})
    slot.per_peer_count[9] = 4
    actions = on_uplink_lost(slot, 9, 1000.0)
    assert actions == []
    assert 9 not in slot.per_peer_count
    assert slot.state is SlotState.SELECTED


def test_uplink_lost_forgets_squelch_of_unselected_peer():
    slot = build_selected_slot(100, {2, 3}, {1, 4})
    actions = on_uplink_lost(slot, 1, 1000.0)
    assert actions == []
    assert slot.squelched == {4: 1e12}
    assert slot.selected == {2, 3}
    assert slot.state is SlotState.SELECTED


# --- deterministic jitter -------------------------------------------------------

def test_squelch_duration_deterministic_and_bounded():
    cfg = ProtocolConfig(squelch_base_ms=300_000, squelch_jitter_ms=150_000)
    d1 = squelch_duration_ms(cfg, 3, 7, 0)
    d2 = squelch_duration_ms(cfg, 3, 7, 0)
    assert d1 == d2
    assert 300_000 <= d1 < 450_000
    others = {squelch_duration_ms(cfg, 3, peer, 0) for peer in range(40)}
    assert len(others) > 1  # jitter actually spreads expiries
    no_jitter = ProtocolConfig(squelch_base_ms=300_000, squelch_jitter_ms=0)
    assert squelch_duration_ms(no_jitter, 3, 7, 0) == 300_000
