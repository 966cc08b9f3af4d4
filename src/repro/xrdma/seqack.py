"""The application-layer seq-ack window (Sec. V-B, Algorithm 1).

Both sides of a channel run one of these.  Sender side: ``seq`` counts
transmitted messages, ``acked`` the ones the *peer application* has
consumed; at most ``depth - 1`` may be in flight.  Receiver side: ``wta``
("wait to ack") counts arrivals, ``rta`` ("ready to ack") the prefix fully
received — a large message only becomes ready once its RDMA Read
completed, so acks track application-visible progress, not hardware
delivery.

Control headers — ACK, NOP, RNDV_CTS, CLOSE — take no sequence number:
they ride ``send_control`` with ``seq=-1`` outside the window, yet each
still lands in one of the peer's receive buffers.  The receiver pre-posts
at least ``depth`` buffers and data may hold at most ``depth - 1`` of
them, so the ring slot held back from data keeps a buffer free for those
headers when the data window is full — in particular for the NOP that
breaks a window deadlock by carrying the ack both sides are waiting for.
So no SEND, data or control, meets an empty RQ: **RNR-free by
construction** (Fig. 9).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis import invariants
from repro.analysis.invariants import check as _invariant


class WindowFull(RuntimeError):
    """No in-flight slot available (callers should queue, not drop)."""


class SeqAckWindow:
    """Ring-buffer window over message sequence numbers."""

    def __init__(self, depth: int) -> None:
        if depth < 2:
            raise ValueError("window depth must be >= 2 (one slot is held "
                             "back for control headers)")
        self.depth = depth
        # Sender state.
        self.seq = 0           #: next sequence number to assign
        self.acked = 0         #: all < acked are consumed by the peer app
        # Receiver state.
        self.wta = 0           #: arrivals seen (right edge)
        self.rta = 0           #: contiguous prefix fully received
        self.sent_ack = 0      #: highest rta we have told the peer about
        self._pending_rx: Dict[int, bool] = {}   #: seq -> fully-received?
        #: seq -> XR-Trace context for sampled arrivals; the window is
        #: where "ready" happens, so it closes the ``window_ready`` span.
        self._traces: Dict[int, object] = {}

    # ------------------------------------------------------------ sender ops
    @property
    def in_flight(self) -> int:
        """Messages sent but not yet consumed by the peer application."""
        return self.seq - self.acked

    def can_send(self) -> bool:
        """One slot is always held back: its receive buffer is the one a
        control header (ACK / NOP / RNDV_CTS / CLOSE) lands in."""
        return self.seq - self.acked < self.depth - 1

    def next_seq(self) -> int:
        """Claim the next sequence number (raises WindowFull when closed).

        The test is :meth:`can_send`'s, written out: ``pump`` has just
        asked can_send, so this is the second look at the same slot."""
        seq = self.seq
        if seq - self.acked >= self.depth - 1:
            raise WindowFull(
                f"in_flight={self.in_flight} depth={self.depth}")
        self.seq = seq + 1
        if invariants.ENABLED:
            self._audit()
        return seq

    def on_ack(self, ack: int) -> int:
        """Peer acknowledged everything below ``ack``; returns #newly acked."""
        if ack <= self.acked:
            return 0
        if ack > self.seq:
            raise ValueError(f"ack {ack} beyond seq {self.seq}")
        newly = ack - self.acked
        self.acked = ack
        if invariants.ENABLED:
            self._audit()
        return newly

    # ---------------------------------------------------------- receiver ops
    def on_arrival(self, seq: int, complete: bool) -> None:
        """A message header arrived (``complete``: payload already whole).

        Large messages arrive incomplete; :meth:`on_complete` follows when
        the rendezvous read finishes.
        """
        if seq < self.rta:
            return  # stale duplicate: already part of the ready prefix
        if seq in self._pending_rx:
            # Middleware-level retransmit.  The retry may carry the
            # completeness the original lacked (payload whole by the time
            # it was resent): upgrade the flag — never downgrade — or the
            # message could never become ready.
            if complete and not self._pending_rx[seq]:
                self._pending_rx[seq] = True
                self._advance_rta()
            return
        self._pending_rx[seq] = complete
        if seq >= self.wta:
            self.wta = seq + 1
        self._advance_rta()

    def is_duplicate(self, seq: int) -> bool:
        """Whether ``seq`` was already seen (delivered or still pending)."""
        return seq < self.rta or seq in self._pending_rx

    def attach_trace(self, seq: int, trace: object) -> None:
        """Remember a sampled arrival's trace context until ``seq`` joins
        the ready prefix (call before :meth:`on_arrival` — a complete
        arrival advances rta immediately)."""
        self._traces[seq] = trace

    def drop_traces(self) -> None:
        """Channel teardown: pending arrivals will never become ready."""
        self._traces.clear()

    def on_complete(self, seq: int) -> None:
        """The payload for ``seq`` is now fully received/processed."""
        if seq < self.rta:
            return
        if seq not in self._pending_rx:
            raise ValueError(f"completion for unknown seq {seq}")
        self._pending_rx[seq] = True
        self._advance_rta()

    def _advance_rta(self) -> None:
        while self._pending_rx.get(self.rta, False):
            del self._pending_rx[self.rta]
            if self._traces:
                trace = self._traces.pop(self.rta, None)
                if trace is not None:
                    trace.mark("window_ready")
            self.rta += 1
        if invariants.ENABLED:
            self._audit()

    # -------------------------------------------------------------- ack duty
    def ack_to_send(self) -> int:
        """Current cumulative ack to piggyback on the next transmission."""
        return self.rta

    def note_ack_sent(self) -> None:
        """Record that the current rta has been transmitted to the peer."""
        self.sent_ack = self.rta
        if invariants.ENABLED:
            self._audit()

    def unacked_arrivals(self) -> int:
        """Messages consumed locally but not yet acked to the peer."""
        return self.rta - self.sent_ack

    # ------------------------------------------------------------ invariants
    def _audit(self) -> None:
        """Inline sanitizer hooks after every state mutation.

        Pure assertions (no clamping), so every call site is gated on the
        sanitizer flag — _audit runs after *every* window mutation, and a
        disarmed run should not pay a call, let alone four detail
        closures, each time.
        """
        _invariant(self.acked <= self.seq, "seqack.acked_gt_seq",
                   lambda: f"acked={self.acked} seq={self.seq}")
        _invariant(self.in_flight <= self.depth, "seqack.in_flight_bounds",
                   lambda: f"in_flight={self.in_flight} depth={self.depth}")
        _invariant(self.rta <= self.wta, "seqack.rta_gt_wta",
                   lambda: f"rta={self.rta} wta={self.wta}")
        _invariant(self.sent_ack <= self.rta, "seqack.sent_ack_gt_rta",
                   lambda: f"sent_ack={self.sent_ack} rta={self.rta}")

    # ------------------------------------------------------------- deadlock
    def stalled(self) -> bool:
        """True when we cannot send a normal message (window closed)."""
        return not self.can_send()
