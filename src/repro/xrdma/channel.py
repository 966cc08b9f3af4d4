"""One X-RDMA channel (connection).

The channel implements the message model of Sec. IV-C over one RC QP:

* **small messages** (≤ ``small_msg_size``) go eagerly as SEND_IMM — one
  RDMA operation, receive buffers pre-posted from the memory cache;
* **large messages** rendezvous — *how* is pluggable: the configured
  :class:`~repro.xrdma.protocol.RendezvousStrategy` moves the payload.
  The default (``rendezvous_variant="read"``) is the paper's design: a
  header-only SEND announces (size, addr, rkey); the *receiver*
  allocates on demand and RDMA-Reads the payload — the same "Read
  replaces Write" path serves large RPC responses.  The ``"write"``
  variant is sender Write-with-notify (CTS grant + WRITE_IMM FIN);
* every transmission piggybacks the seq-ack window's cumulative ack;
* keepAlive probes are zero-byte RDMA Writes the peer RNIC acknowledges in
  hardware;
* data WRs flow through the per-channel :class:`FlowController`.

The send and rendezvous paths live in :mod:`repro.xrdma.protocol`; the
channel owns the state (window, queues, ``_rendezvous``,
``_write_pending``) and delegates wire decisions to the strategies its
:class:`~repro.xrdma.protocol.ProtocolPolicy` selects per message.

All generator methods are driven by the owning context's run-to-complete
loop — the channel never blocks anyone else's progress.
"""

from __future__ import annotations

import itertools
from collections import deque
from enum import Enum, auto
from typing import TYPE_CHECKING, Deque, Dict, Tuple

from repro.analysis import invariants
from repro.analysis.invariants import check as _invariant
from repro.rnic.qp import QpState
from repro.rnic.wqe import Completion, Opcode, WorkRequest, WrStatus
# _PENDING: an event's value before it triggers — the hot paths below
# test it directly instead of through the ``triggered`` property.
from repro.sim.events import _PENDING, Event
from repro.sim.process import ProcessGenerator
from repro.xrdma.flowctl import FlowController
from repro.xrdma.memcache import RdmaBuffer
from repro.xrdma.message import (MessageKind, XrdmaHeader, XrdmaMessage)
from repro.xrdma.protocol import ProtocolPolicy, _Rendezvous, _WrRoute
from repro.xrdma.seqack import SeqAckWindow

if TYPE_CHECKING:  # pragma: no cover
    from repro.verbs.cm import CmConnection
    from repro.xrdma.context import XrdmaContext


class ChannelState(Enum):
    """Lifecycle of a channel (READY until closed or found dead)."""
    READY = auto()
    BROKEN = auto()     #: peer dead or QP errored; resources released
    CLOSED = auto()     #: orderly shutdown


class ChannelBroken(RuntimeError):
    """Raised into waiters when the channel dies under them."""


class XrdmaChannel:
    """One established connection between two X-RDMA contexts."""

    def __init__(self, ctx: "XrdmaContext", conn: "CmConnection",
                 window_depth: int) -> None:
        self.ctx = ctx
        self.conn = conn
        self.qp = conn.qp
        self.channel_id = ctx.sim.next_id("channel")
        self.state = ChannelState.READY
        self.window = SeqAckWindow(window_depth)
        #: unacked arrivals that earn a standalone ACK (a quarter window)
        self._ack_threshold = max(1, window_depth // 4)
        self.flow = FlowController(
            ctx.verbs, self.qp,
            max_outstanding=ctx.config.max_outstanding_wrs,
            fragment_bytes=ctx.config.fragment_bytes,
            enabled=ctx.config.flow_control,
            budget=ctx.wr_budget)
        self.protocol = ProtocolPolicy(ctx.config)
        self.pending_send: Deque[XrdmaMessage] = deque()
        self.sent: Dict[int, XrdmaMessage] = {}          # seq -> message
        self.pending_requests: Dict[int, XrdmaMessage] = {}  # msg_id -> req
        self._msg_ids = itertools.count(1)
        self._rendezvous: Dict[int, _Rendezvous] = {}    # seq -> state
        #: write-rendezvous sender side: seq -> message awaiting its CTS
        self._write_pending: Dict[int, XrdmaMessage] = {}
        #: completed arrivals awaiting in-order delivery to the app
        self._pending_delivery: Dict[int, Tuple[XrdmaHeader, int]] = {}
        self._next_deliver_seq = 0
        self._recv_buffers: Deque[RdmaBuffer] = deque()
        self.last_rx_ns = ctx.sim.now
        self.last_tx_ns = ctx.sim.now
        self.keepalive_in_flight = False
        self.on_request = None        #: optional handler(msg) for RPC servers
        self.on_broken = None         #: callback(channel) on failure
        self.stats = {
            "tx_msgs": 0, "rx_msgs": 0, "tx_bytes": 0, "rx_bytes": 0,
            "acks_sent": 0, "nops_sent": 0, "keepalives_sent": 0,
            "rendezvous_reads": 0, "rendezvous_writes": 0, "queued_peak": 0,
        }

    # ------------------------------------------------------------ public api
    @property
    def remote_host(self) -> int:
        """Peer host id."""
        return self.conn.remote_host

    @property
    def is_ready(self) -> bool:
        """True while the channel can carry traffic (strategy guard)."""
        return self.state is ChannelState.READY

    def queue_message(self, msg: XrdmaMessage) -> XrdmaMessage:
        """Accept a message for transmission (called by context.send_msg)."""
        if self.state is not ChannelState.READY:
            raise ChannelBroken(f"channel {self.channel_id} is {self.state.name}")
        sim = self.ctx.sim
        msg.channel = self
        msg.msg_id = next(self._msg_ids)
        msg.created_at = sim._now
        # Static names, built directly: a name only shows in an error
        # message, so an f-string per message would be waste.
        msg.acked = acked = Event(sim, "acked")
        acked.defused = True
        if msg.kind is MessageKind.REQUEST:
            msg.response = response = Event(sim, "response")
            response.defused = True
            self.pending_requests[msg.msg_id] = msg
        self.pending_send.append(msg)
        queued = len(self.pending_send)
        if queued > self.stats["queued_peak"]:
            self.stats["queued_peak"] = queued
        return msg

    # --------------------------------------------------------------- tx pump
    def pump(self) -> ProcessGenerator:
        """Generator: move queued messages onto the wire while the window
        has room (driven by the context loop).  Callers skip it when
        ``pending_send`` is empty: it would do nothing."""
        window = self.window
        pending_send = self.pending_send
        while (pending_send and window.can_send()
               and self.state is ChannelState.READY):
            msg = pending_send.popleft()
            seq = window.next_seq()
            if invariants.ENABLED:
                _invariant(seq not in self.sent, "channel.seq_reuse",
                           lambda: f"channel {self.channel_id} seq {seq}")
            header = XrdmaHeader(
                kind=msg.kind, seq=seq, ack=window.rta,
                msg_id=msg.msg_id, payload_size=msg.payload_size,
                large=self.protocol.is_large(msg.payload_size),
                request_msg_id=msg.request_msg_id,
                user_payload=msg.payload)
            if self.ctx.config.req_rsp_mode:
                self._trace_header(msg, header)
            self.sent[seq] = msg
            msg.header = header
            yield from self.protocol.select(header).send(self, msg, header)
            if self.state is not ChannelState.READY:
                return      # broke during the send; mark_broken swept us
            self.stats["tx_msgs"] += 1
            self.stats["tx_bytes"] += msg.payload_size
            self.last_tx_ns = self.ctx.sim._now
            window.note_ack_sent()

    def _trace_header(self, msg: XrdmaMessage, header: XrdmaHeader) -> None:
        """Req-rsp mode: the extended header's tracing fields."""
        header.trace_id = self.ctx.sim.next_id("trace")
        header.sent_at_ns = self.ctx.local_time()
        tracer = self.ctx.tracer
        if tracer is not None:
            header.trace = tracer.begin_trace(self, msg, header)

    def send_control(self, kind: MessageKind, *, rendezvous_seq: int = -1,
                     src_addr: int = 0, src_rkey: int = 0) -> ProcessGenerator:
        """Generator: standalone control header (no window slot consumed).

        ACK and NOP for the window; RNDV_CTS for the write-rendezvous
        grant (``rendezvous_seq`` + the receiver buffer's addr/rkey).
        Like ``pump``, it asks the policy who carries the header.
        The ack bookkeeping runs *after* the post yield: if the post
        fails or the channel breaks while this process is suspended, the
        window must not believe an ack went out.
        """
        header = XrdmaHeader(
            kind=kind, seq=-1, ack=self.window.rta,
            msg_id=0, payload_size=0, src_addr=src_addr, src_rkey=src_rkey,
            rendezvous_seq=rendezvous_seq)
        self.last_tx_ns = self.ctx.sim._now
        yield from self.protocol.select(header).send_control(self, header)
        if self.state is not ChannelState.READY:
            return      # broke mid-post; the ack never left
        self.window.note_ack_sent()
        if kind is MessageKind.ACK:
            self.stats["acks_sent"] += 1
        elif kind is MessageKind.NOP:
            self.stats["nops_sent"] += 1

    def keepalive_probe(self) -> ProcessGenerator:
        """Generator: zero-byte RDMA Write; the peer RNIC acks in hardware.
        Always on the channel's own QP: a dead QP breaks the channel even
        while a Mock detour carries its messages over TCP."""
        if self.keepalive_in_flight or self.state is not ChannelState.READY:
            return
        self.keepalive_in_flight = True
        self.stats["keepalives_sent"] += 1
        wr = WorkRequest(opcode=Opcode.WRITE, length=0, remote_addr=0, rkey=1)
        self.ctx.route_wr(wr, self, _WrRoute(tag="keepalive"))
        yield self.ctx.verbs.post_send(self.qp, wr)

    # ------------------------------------------------------------- rx path
    def on_receive(self, completion: Completion) -> ProcessGenerator:
        """Generator: process one inbound message header (from a RECV CQE)."""
        header: XrdmaHeader = completion.payload
        self.last_rx_ns = self.ctx.sim._now
        if header.ack >= 0:
            self._apply_peer_ack(header.ack)
        if header.kind in (MessageKind.ACK, MessageKind.NOP):
            if self.pending_send:   # freed window slots: move the queue
                yield from self.pump()
            return
        if header.kind in (MessageKind.RNDV_CTS, MessageKind.RNDV_FIN):
            # Write-rendezvous control: rides with seq == -1 (like
            # ACK/NOP, no window slot); correlated by rendezvous_seq.
            yield from self.protocol.rendezvous.on_control(self, header)
            if self.pending_send:   # its piggybacked ack freed slots
                yield from self.pump()
            return
        if header.kind is MessageKind.CLOSE:
            yield from self.ctx.close_channel(self, notify=False)
            return
        # A retransmitted header must be idempotent: the window absorbs
        # (or upgrades) it, but starting a second rendezvous would leak
        # the first read's buffer, and re-staging delivery would strand a
        # stale entry behind the delivery cursor forever.
        duplicate = self.window.is_duplicate(header.seq)
        if not duplicate and header.trace is not None:
            # Attach before on_arrival: a complete arrival advances rta
            # (and closes the window_ready span) immediately.
            self.window.attach_trace(header.seq, header.trace)
        self.window.on_arrival(header.seq, complete=not header.large)
        if header.large:
            if not duplicate:
                yield from self.protocol.rendezvous.on_announce(self, header)
        else:
            if not duplicate:
                # Delivery is strictly in sequence order: a small message
                # must not overtake an earlier large one whose read is in
                # flight.
                self._pending_delivery[header.seq] = (header,
                                                      self.ctx.sim._now)
            self._flush_deliveries()
        yield from self._post_arrival_duties()

    def _flush_deliveries(self) -> None:
        """Hand the app every message inside the window's ready prefix."""
        if invariants.ENABLED:
            _invariant(self._next_deliver_seq <= self.window.rta,
                       "channel.delivery_ahead_of_rta",
                       lambda: f"next_deliver={self._next_deliver_seq} "
                               f"rta={self.window.rta}")
        while self._next_deliver_seq < self.window.rta:
            entry = self._pending_delivery.pop(self._next_deliver_seq, None)
            self._next_deliver_seq += 1
            if entry is not None:
                header, arrived_at = entry
                self._deliver(header, arrived_at)

    def _post_arrival_duties(self) -> ProcessGenerator:
        """Ack decisions + window movement after arrivals advance rta."""
        if self.pending_send:
            yield from self.pump()
        window = self.window
        # unacked_arrivals(), written out: this runs on every arrival.
        if (window.rta - window.sent_ack >= self._ack_threshold
                and not self.pending_send
                and self.state is ChannelState.READY):
            yield from self.send_control(MessageKind.ACK)

    def _apply_peer_ack(self, ack: int) -> None:
        newly = self.window.on_ack(ack)
        if newly == 0:
            return
        for seq in range(ack - newly, ack):
            msg = self.sent.pop(seq, None)
            if msg is None:
                continue
            if msg.owns_buffer:
                self.ctx.memcache.free(msg.src_buffer)
                msg.owns_buffer = False
            acked = msg.acked
            if acked is not None and acked._value is _PENDING:
                acked.succeed(self.ctx.sim._now - msg.created_at)
            if self.ctx.tracer is not None:
                self.ctx.tracer.on_message_acked(self, msg)

    def _finish_rendezvous(self, seq: int) -> ProcessGenerator:
        """Generator: the payload has landed — complete the window slot,
        stage delivery, and release the landing buffer (idempotent)."""
        rendezvous = self._rendezvous.pop(seq, None)
        if rendezvous is None:
            return
        if rendezvous.header.trace is not None:
            rendezvous.header.trace.mark("rendezvous_read")
        self.window.on_complete(seq)
        self._pending_delivery[seq] = (rendezvous.header,
                                       rendezvous.started_at)
        self._flush_deliveries()
        if rendezvous.buffer is not None:
            self.ctx.memcache.free(rendezvous.buffer)
        yield from self._post_arrival_duties()

    def _deliver(self, header: XrdmaHeader, arrived_at: int) -> None:
        self.stats["rx_msgs"] += 1
        self.stats["rx_bytes"] += header.payload_size
        msg = XrdmaMessage(
            kind=header.kind, payload_size=header.payload_size,
            payload=header.user_payload, channel=self, header=header,
            request_msg_id=header.request_msg_id)
        msg.created_at = arrived_at
        msg.delivered_at = self.ctx.sim._now
        if header.trace is not None:
            header.trace.mark("rx_deliver")
        if self.ctx.tracer is not None:
            self.ctx.tracer.on_message_delivered(self, msg)
        if header.kind is MessageKind.RESPONSE:
            request = self.pending_requests.pop(header.request_msg_id, None)
            if request is not None:
                response = request.response
                if response is not None and response._value is _PENDING:
                    response.succeed(msg)
                return
        if header.kind is MessageKind.REQUEST and self.on_request is not None:
            self.on_request(msg)
            return
        self.ctx.deliver(msg)

    # -------------------------------------------------------- cqe dispatch
    def on_send_completion(self, completion: Completion,
                           route: _WrRoute) -> ProcessGenerator:
        """Generator: route one send-side CQE."""
        if completion.status is not WrStatus.SUCCESS:
            self.mark_broken(f"send CQE error: {completion.status.name}")
            return
        if route.tag == "keepalive":
            self.keepalive_in_flight = False
            return
        if route.tag == "ctrl":
            return
        # Data WRs participate in flow control.
        yield from self.flow.on_completion()
        if route.last_fragment:
            yield from self.protocol.rendezvous.on_data_completion(self,
                                                                   route)

    # -------------------------------------------------------------- failure
    def mark_broken(self, reason: str) -> None:
        """Release everything; fail waiters (keepAlive's whole purpose)."""
        if self.state is not ChannelState.READY:
            return
        self.state = ChannelState.BROKEN
        error = ChannelBroken(
            f"channel {self.channel_id} to host {self.remote_host}: {reason}")
        for msg in list(self.sent.values()) + list(self.pending_send):
            if msg.owns_buffer:
                self.ctx.memcache.free(msg.src_buffer)
                msg.owns_buffer = False
            if msg.acked is not None and not msg.acked.triggered:
                msg.acked.fail(error)
        for msg in self.pending_requests.values():
            if msg.response is not None and not msg.response.triggered:
                msg.response.fail(error)
        self.sent.clear()
        self.pending_send.clear()
        self.pending_requests.clear()
        # Write-rendezvous messages awaiting a CTS are also in `sent`
        # (their buffers were just freed above); drop the correlation.
        self._write_pending.clear()
        for rendezvous in self._rendezvous.values():
            if rendezvous.buffer is not None:
                self.ctx.memcache.free(rendezvous.buffer)
        self._rendezvous.clear()
        self._pending_delivery.clear()
        self.window.drop_traces()
        self.flow.drop_all()
        self.protocol.release()
        while self._recv_buffers:
            self.ctx.memcache.free(self._recv_buffers.popleft())
        self.ctx.on_channel_broken(self)
        if self.on_broken is not None:
            self.on_broken(self)

    # ------------------------------------------------------------- liveness
    def idle_ns(self, now: int) -> int:
        """Time since the last traffic in either direction (keepAlive)."""
        return now - max(self.last_rx_ns, self.last_tx_ns)

    def needs_nop(self) -> bool:
        """Deadlock check: queued traffic, closed window, unsent acks."""
        return (bool(self.pending_send) and self.window.stalled()
                and self.window.unacked_arrivals() > 0)
