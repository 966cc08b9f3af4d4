"""Unit + property tests for the seq-ack window (Algorithm 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xrdma import SeqAckWindow, WindowFull


def test_window_opens_with_full_capacity():
    window = SeqAckWindow(8)
    assert window.can_send()
    assert window.in_flight == 0


def test_one_slot_reserved_for_nop():
    window = SeqAckWindow(4)
    for _ in range(3):
        window.next_seq()
    assert not window.can_send()


def test_next_seq_raises_when_full():
    window = SeqAckWindow(2)
    window.next_seq()
    with pytest.raises(WindowFull):
        window.next_seq()


def test_ack_frees_slots():
    window = SeqAckWindow(4)
    for _ in range(3):
        window.next_seq()
    assert window.on_ack(2) == 2
    assert window.in_flight == 1
    assert window.can_send()


def test_duplicate_ack_is_noop():
    window = SeqAckWindow(4)
    window.next_seq()
    window.on_ack(1)
    assert window.on_ack(1) == 0
    assert window.on_ack(0) == 0


def test_ack_beyond_seq_rejected():
    window = SeqAckWindow(4)
    window.next_seq()
    with pytest.raises(ValueError):
        window.on_ack(5)


def test_in_order_arrivals_advance_rta():
    window = SeqAckWindow(8)
    for seq in range(5):
        window.on_arrival(seq, complete=True)
    assert window.rta == 5
    assert window.wta == 5


def test_incomplete_arrival_blocks_rta():
    window = SeqAckWindow(8)
    window.on_arrival(0, complete=True)
    window.on_arrival(1, complete=False)   # large message, read pending
    window.on_arrival(2, complete=True)
    assert window.rta == 1                 # stuck behind seq 1
    window.on_complete(1)
    assert window.rta == 3                 # unblocks the whole prefix


def test_duplicate_arrival_ignored():
    window = SeqAckWindow(8)
    window.on_arrival(0, complete=True)
    window.on_arrival(0, complete=True)
    assert window.rta == 1


def test_unknown_completion_rejected():
    window = SeqAckWindow(8)
    with pytest.raises(ValueError):
        window.on_complete(3)


def test_stale_completion_ignored():
    window = SeqAckWindow(8)
    window.on_arrival(0, complete=True)
    window.on_complete(0)  # already complete; rta moved past it
    assert window.rta == 1


def test_ack_bookkeeping():
    window = SeqAckWindow(8)
    for seq in range(3):
        window.on_arrival(seq, complete=True)
    assert window.unacked_arrivals() == 3
    assert window.ack_to_send() == 3
    window.note_ack_sent()
    assert window.unacked_arrivals() == 0


def test_depth_validation():
    with pytest.raises(ValueError):
        SeqAckWindow(1)


def test_retransmit_upgrades_completeness():
    window = SeqAckWindow(8)
    window.on_arrival(0, complete=False)   # large message, read pending
    assert window.rta == 0
    # A middleware-level retransmit arrives *complete* (the payload was
    # whole by the time the sender retried): the flag must upgrade, or
    # the message never becomes ready and rta wedges forever.
    window.on_arrival(0, complete=True)
    assert window.rta == 1


def test_retransmit_never_downgrades_completeness():
    window = SeqAckWindow(8)
    window.on_arrival(1, complete=True)    # gap at 0 keeps it pending
    window.on_arrival(1, complete=False)   # stale duplicate of the header
    window.on_arrival(0, complete=True)
    assert window.rta == 2                 # seq 1 stayed complete


def test_is_duplicate_tracks_prefix_and_pending():
    window = SeqAckWindow(8)
    assert not window.is_duplicate(0)
    window.on_arrival(0, complete=True)
    assert window.is_duplicate(0)          # below rta now
    window.on_arrival(2, complete=False)
    assert window.is_duplicate(2)          # pending, out of order
    assert not window.is_duplicate(1)


# ---------------------------------------------------------------- properties

@given(st.lists(st.integers(min_value=0, max_value=30), max_size=60),
       st.integers(min_value=2, max_value=16))
@settings(max_examples=200)
def test_property_rta_is_contiguous_prefix(arrival_order, depth):
    """rta only ever covers a gap-free, fully-complete prefix."""
    window = SeqAckWindow(depth)
    seen = set()
    for seq in arrival_order:
        window.on_arrival(seq, complete=True)
        seen.add(seq)
        # Invariant: everything below rta was seen, in order.
        assert all(s in seen for s in range(window.rta))
        assert window.rta <= window.wta


@given(st.lists(st.booleans(), min_size=1, max_size=40),
       st.integers(min_value=3, max_value=12))
@settings(max_examples=200)
def test_property_window_never_exceeds_depth(send_or_ack, depth):
    """Interleaved sends and acks never push in_flight past depth - 1."""
    window = SeqAckWindow(depth)
    for do_send in send_or_ack:
        if do_send and window.can_send():
            window.next_seq()
        elif window.in_flight > 0:
            window.on_ack(window.acked + 1)
        assert 0 <= window.in_flight <= depth - 1


@given(st.lists(st.tuples(st.integers(0, 20), st.booleans()), max_size=50))
@settings(max_examples=200)
def test_property_mixed_large_small_arrivals(events):
    """Arbitrary arrival/completion interleavings keep rta monotone."""
    window = SeqAckWindow(32)
    pending = set()
    last_rta = 0
    for seq, complete in events:
        window.on_arrival(seq, complete=complete)
        if not complete:
            pending.add(seq)
        assert window.rta >= last_rta
        last_rta = window.rta
    for seq in sorted(pending):
        if seq >= window.rta and seq in window._pending_rx:
            window.on_complete(seq)
            assert window.rta >= last_rta
            last_rta = window.rta
