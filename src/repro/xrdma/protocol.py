"""Pluggable messaging-protocol strategies (the Taranov taxonomy axes).

X-RDMA fixes one design point of the messaging protocol (Sec. IV-C):
eager SEND_IMM below ``small_msg_size``, receiver-driven rendezvous Read
above it.  This module makes that point *searchable*: the channel's send
and rendezvous paths are strategy objects selected per message by a
:class:`ProtocolPolicy`, so XR-Fleet can grid the protocol axes —

* **eager threshold** (``small_msg_size``) — where eager hands over to
  rendezvous,
* **rendezvous variant** (``rendezvous_variant``) — who moves the bytes:

  - ``read`` (the paper's design): the announce carries the *sender's*
    buffer (addr, rkey); the receiver allocates on demand and RDMA-Reads
    the payload in fragments.  One control message (the announce), and
    "Read replaces Write" serves large RPC responses for free.
  - ``write`` (sender Write-with-notify): the announce carries only the
    size; the receiver allocates and answers with an ``RNDV_CTS``
    control naming *its* buffer; the sender RDMA-Writes the fragments
    and folds the notify into the last one as a WRITE_IMM carrying an
    ``RNDV_FIN`` header.  RC ordering guarantees every plain Write has
    landed when the IMM completes, so the FIN is the delivery signal.

* **fragment size** (``fragment_bytes``) and **window depth**
  (``inflight_depth``) ride along through the existing flow-control and
  seq-ack machinery.

Strategies are stateless singletons — all per-transfer state lives on
the channel (``_rendezvous`` receiver-side, ``_write_pending``
sender-side), so a strategy never outlives or leaks a channel.  (The
one exception owns a socket: the Mock's ``TcpDetour``, which the policy
closes with the channel — see :meth:`ProtocolPolicy.detour`.)

Every strategy body is a generator driven by the owning context's
run-to-complete loop; each ``yield`` hands the scheduler to every other
simulation process, so shared channel state must be re-validated after
every yield (the XR401 stale-guard doctrine — the re-checks below are
load-bearing, not defensive).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.analysis import invariants
from repro.analysis.invariants import check as _invariant
from repro.rnic.wqe import Opcode, WorkRequest
from repro.sim.process import ProcessGenerator
from repro.xrdma.memcache import RdmaBuffer
from repro.xrdma.message import MessageKind, XrdmaHeader, XrdmaMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.xrdma.channel import XrdmaChannel
    from repro.xrdma.config import XrdmaConfig

__all__ = ["ProtocolPolicy", "EagerStrategy", "RendezvousStrategy",
           "ReadRendezvous", "WriteRendezvous", "rendezvous_variant_names",
           "_WrRoute", "_Rendezvous"]


@dataclass
class _WrRoute:
    """Send-CQE demultiplexing record."""

    tag: str                       #: small|announce|ctrl|read|write|keepalive
    message: Optional[XrdmaMessage] = None
    seq: int = -1
    last_fragment: bool = False
    header: Optional[XrdmaHeader] = None


@dataclass
class _Rendezvous:
    """Receiver-side state for one in-progress large-message transfer."""

    seq: int
    header: XrdmaHeader
    buffer: Optional[RdmaBuffer]
    started_at: int


class EagerStrategy:
    """Small messages: one eager SEND_IMM, receive buffers pre-posted.
    Whoever holds a policy's eager slot also carries the channel's
    standalone control headers (:meth:`send_control`)."""

    name = "eager"

    def send(self, channel: "XrdmaChannel", msg: XrdmaMessage,
             header: XrdmaHeader) -> ProcessGenerator:
        """Build and route the SEND_IMM; returns flow control's post
        generator for the caller to drive.  A plain function: this
        frame would only be resumed to hand the post's wake through."""
        wire = msg.payload_size + header.wire_bytes(
            channel.ctx.config.req_rsp_mode)
        wr = WorkRequest(opcode=Opcode.SEND_IMM, length=wire,
                         imm_data=header.ack & 0xFFFF_FFFF, payload=header)
        channel.ctx.route_wr(wr, channel, _WrRoute(tag="small", message=msg,
                                                   seq=header.seq))
        return channel.flow.post(wr)

    def send_control(self, channel: "XrdmaChannel",
                     header: XrdmaHeader) -> ProcessGenerator:
        """A header-only SEND outside the window and flow control."""
        wr = WorkRequest(
            opcode=Opcode.SEND,
            length=header.wire_bytes(channel.ctx.config.req_rsp_mode),
            payload=header)
        channel.ctx.route_wr(wr, channel, _WrRoute(tag="ctrl", header=header))
        yield channel.ctx.verbs.post_send(channel.qp, wr)


class RendezvousStrategy:
    """Large messages: how the payload crosses once announced.

    Both ends are shared: the sender wires a source buffer and posts a
    header-only announce (:meth:`send`), the receiver allocates a landing
    buffer and installs the transfer (:meth:`on_announce`).  Subclasses
    say what the announce carries (:meth:`_prepare_announce`), how the
    bytes start moving (:meth:`_start`), and react to rendezvous control
    messages (:meth:`on_control` — RNDV_CTS/RNDV_FIN) and the send CQE
    of a transfer's last fragment (:meth:`on_data_completion`).  All but
    the first are generators; a body with nothing to do simply returns
    (``yield from`` of an empty generator adds no simulation events,
    which is what keeps the default strategy schedule-identical to the
    pre-refactor channel).
    """

    name = "?"

    def send(self, channel: "XrdmaChannel", msg: XrdmaMessage,
             header: XrdmaHeader) -> ProcessGenerator:
        # The payload must live in RDMA-enabled memory, wired up front:
        # the peer may Read it (or grant the Writes) at any poll round.
        if msg.src_buffer is None:
            buffer = yield from self._alloc_checked(channel,
                                                    msg.payload_size)
            if buffer is None:
                return      # channel died during the alloc; pump() stops
            msg.src_buffer = buffer
            msg.owns_buffer = True
        if header.trace is not None:
            header.trace.mark("src_alloc")
        self._prepare_announce(channel, msg, header)
        wire = header.wire_bytes(channel.ctx.config.req_rsp_mode)
        wr = WorkRequest(opcode=Opcode.SEND_IMM, length=wire,
                         imm_data=header.ack & 0xFFFF_FFFF, payload=header)
        channel.ctx.route_wr(wr, channel,
                             _WrRoute(tag="announce", message=msg,
                                      seq=header.seq))
        yield from channel.flow.post(wr)

    def on_announce(self, channel: "XrdmaChannel",
                    header: XrdmaHeader) -> ProcessGenerator:
        if invariants.ENABLED:
            _invariant(header.seq not in channel._rendezvous,
                       "channel.duplicate_rendezvous",
                       lambda: f"channel {channel.channel_id} "
                               f"seq {header.seq}")
        buffer = yield from self._alloc_checked(channel, header.payload_size)
        if buffer is None:
            return          # mark_broken swept the channel mid-alloc
        channel._rendezvous[header.seq] = _Rendezvous(
            seq=header.seq, header=header, buffer=buffer,
            started_at=channel.ctx.sim.now)
        yield from self._start(channel, header, buffer)

    def _prepare_announce(self, channel: "XrdmaChannel", msg: XrdmaMessage,
                          header: XrdmaHeader) -> None:
        raise NotImplementedError

    def _start(self, channel: "XrdmaChannel", header: XrdmaHeader,
               buffer: RdmaBuffer) -> ProcessGenerator:
        raise NotImplementedError
        yield  # pragma: no cover

    def on_control(self, channel: "XrdmaChannel",
                   header: XrdmaHeader) -> ProcessGenerator:
        return
        yield  # pragma: no cover

    def on_data_completion(self, channel: "XrdmaChannel",
                           route: _WrRoute) -> ProcessGenerator:
        return
        yield  # pragma: no cover

    # ------------------------------------------------------------ shared
    @staticmethod
    def _alloc_checked(channel: "XrdmaChannel",
                       size: int) -> ProcessGenerator:
        """Allocate RDMA memory, surviving a mid-alloc channel death.

        ``memcache.alloc`` yields on arena growth; if ``mark_broken``
        runs while this process is suspended there, its cleanup has
        already swept the channel — installing fresh state afterwards
        would leak the buffer onto a dead channel.  Returns None (buffer
        freed) in that case; callers must bail out.
        """
        buffer = yield from channel.ctx.memcache.alloc(size)
        if not channel.is_ready:
            channel.ctx.memcache.free(buffer)
            return None
        return buffer


class ReadRendezvous(RendezvousStrategy):
    """The paper's receiver-driven rendezvous (Sec. IV-C).

    The announce SEND carries (size, src_addr, src_rkey); the receiver
    allocates on demand and RDMA-Reads the payload in flow-controlled
    fragments, completing the window slot when the last Read's CQE
    arrives.
    """

    name = "read"

    def _prepare_announce(self, channel: "XrdmaChannel", msg: XrdmaMessage,
                          header: XrdmaHeader) -> None:
        header.src_addr = msg.src_buffer.addr
        header.src_rkey = msg.src_buffer.rkey

    def _start(self, channel: "XrdmaChannel", header: XrdmaHeader,
               buffer: RdmaBuffer) -> ProcessGenerator:
        """Receiver-side fragmented RDMA Read into the landing buffer."""
        layout = channel.flow.fragment_layout(header.payload_size)
        channel.stats["rendezvous_reads"] += len(layout)
        for offset, size, last in layout:
            wr = WorkRequest(
                opcode=Opcode.READ, length=size,
                remote_addr=header.src_addr + offset,
                rkey=header.src_rkey)
            channel.ctx.route_wr(wr, channel, _WrRoute(
                tag="read", seq=header.seq, last_fragment=last,
                header=header))
            yield from channel.flow.post(wr)

    def on_data_completion(self, channel: "XrdmaChannel",
                           route: _WrRoute) -> ProcessGenerator:
        if route.tag == "read" and route.last_fragment:
            yield from channel._finish_rendezvous(route.seq)


class WriteRendezvous(RendezvousStrategy):
    """Sender Write-with-notify (the Taranov write-based rendezvous).

    The announce SEND carries only the size; the receiver allocates and
    grants with an RNDV_CTS control naming its buffer (addr, rkey); the
    sender RDMA-Writes the fragments, folding the notify into the last
    one as a WRITE_IMM whose payload is an RNDV_FIN header.  RC ordering
    means every preceding Write has landed when the IMM's receive
    completion fires, so the FIN both notifies and completes the window
    slot.  Two control messages per transfer instead of one, but the
    data flows sender-paced — no Read round-trip per fragment window.
    """

    name = "write"

    def _prepare_announce(self, channel: "XrdmaChannel", msg: XrdmaMessage,
                          header: XrdmaHeader) -> None:
        channel._write_pending[header.seq] = msg

    def _start(self, channel: "XrdmaChannel", header: XrdmaHeader,
               buffer: RdmaBuffer) -> ProcessGenerator:
        """Receiver: grant with a CTS naming the landing buffer."""
        yield from channel.send_control(
            MessageKind.RNDV_CTS, rendezvous_seq=header.seq,
            src_addr=buffer.addr, src_rkey=buffer.rkey)

    def on_control(self, channel: "XrdmaChannel",
                   header: XrdmaHeader) -> ProcessGenerator:
        if header.kind is MessageKind.RNDV_CTS:
            yield from self._on_cts(channel, header)
        elif header.kind is MessageKind.RNDV_FIN:
            # Idempotent: a duplicated FIN pops nothing and returns.
            yield from channel._finish_rendezvous(header.rendezvous_seq)

    def _on_cts(self, channel: "XrdmaChannel",
                header: XrdmaHeader) -> ProcessGenerator:
        """Sender: the grant arrived — stream the fragments, FIN last."""
        msg = channel._write_pending.pop(header.rendezvous_seq, None)
        if msg is None or not channel.is_ready:
            return          # duplicated CTS, or the channel already died
        data_header = msg.header
        layout = channel.flow.fragment_layout(msg.payload_size)
        channel.stats["rendezvous_writes"] += len(layout)
        for offset, size, last in layout:
            if last:
                fin = XrdmaHeader(
                    kind=MessageKind.RNDV_FIN, seq=-1,
                    ack=channel.window.ack_to_send(), msg_id=0,
                    payload_size=0, rendezvous_seq=data_header.seq)
                wr = WorkRequest(
                    opcode=Opcode.WRITE_IMM, length=size,
                    remote_addr=header.src_addr + offset,
                    rkey=header.src_rkey,
                    imm_data=data_header.seq & 0xFFFF_FFFF, payload=fin)
            else:
                wr = WorkRequest(
                    opcode=Opcode.WRITE, length=size,
                    remote_addr=header.src_addr + offset,
                    rkey=header.src_rkey)
            channel.ctx.route_wr(wr, channel, _WrRoute(
                tag="write", message=msg, seq=data_header.seq,
                last_fragment=last))
            yield from channel.flow.post(wr)


#: stateless strategy singletons (all state lives on the channel)
_EAGER = EagerStrategy()
_VARIANTS: Dict[str, RendezvousStrategy] = {
    ReadRendezvous.name: ReadRendezvous(),
    WriteRendezvous.name: WriteRendezvous(),
}


def rendezvous_variant_names() -> List[str]:
    """Registered rendezvous variant names (config validation, sweeps)."""
    return sorted(_VARIANTS)


class ProtocolPolicy:
    """Per-message strategy selection from one :class:`XrdmaConfig`.

    Eager below the threshold, the configured rendezvous variant above
    it.  The channel's ``pump`` evaluates the policy once per message
    (setting ``header.large``) and dispatches on it — both ends of a
    channel must be configured with the same variant, exactly as both
    ends must agree on ``small_msg_size`` today.
    """

    def __init__(self, config: "XrdmaConfig") -> None:
        self._config = config
        self.rendezvous = _VARIANTS[config.rendezvous_variant]
        #: detour wires (engaged or lingering) this channel must close
        self._wires: List[Any] = []
        self.restore()

    def detour(self, wire: Any) -> None:
        """Carry every *new* header over ``wire`` (the Mock's TCP
        strategy).  A stream has no rendezvous: the threshold lifts out
        of reach, so ``select``/``is_large`` need no branch, while
        transfers already announced finish under ``rendezvous``."""
        self._wires.append(wire)
        self.eager = wire
        self.threshold = sys.maxsize

    def restore(self) -> None:
        """New sends go back over RC.  The wire stays open — the peer's
        acks are still on it, and a closed socket drops what arrives."""
        self.eager = _EAGER
        self.threshold = self._config.small_msg_size

    def release(self) -> None:
        """Channel closed or broken: close every wire it ever took."""
        self.restore()
        while self._wires:
            self._wires.pop().close()

    def is_large(self, payload_size: int) -> bool:
        """Does a payload take the rendezvous path?"""
        return payload_size > self.threshold

    def select(self, header: XrdmaHeader):
        """The strategy that sends a message with this header."""
        return self.rendezvous if header.large else self.eager
