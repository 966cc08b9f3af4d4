"""Mock: temporary TCP fallback (Sec. VI-C, "Switch between RDMA and TCP").

When the RDMA data plane misbehaves (heavy congestion, incast storms,
protocol-stack collapse) X-RDMA can reroute a channel's traffic over kernel
TCP.  Throughput drops, but the service survives.

Engage per channel pair::

    mock = Mock(cluster)
    yield from mock.engage(client_ctx, client_ch, server_ctx, server_ch)
    client_ctx.send_msg(client_ch, 4096)      # now travels over TCP
    mock.disengage(client_ch)                  # back to RDMA

The detour is a *strategy*, not a second code path: while engaged the
channel's :class:`~repro.xrdma.protocol.ProtocolPolicy` hands every
header — data and ACK/NOP/CLOSE/RNDV_CTS alike — to :class:`TcpDetour`
instead of the eager RC strategy, and every header the socket receives
re-enters the owning context's poll loop as a receive completion.  The
seq-ack window, in-order delivery, Filter, XR-Trace and ``mark_broken``
are the channel's own, so a message may be queued under one transport,
sent under the other and acked over either without loss or reordering.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.baselines.tcpstack import TcpError, TcpSocket
from repro.rnic.wqe import Completion, Opcode, WrStatus
from repro.sim.process import ProcessGenerator

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.xrdma.channel import XrdmaChannel
    from repro.xrdma.context import XrdmaContext
    from repro.xrdma.message import XrdmaHeader, XrdmaMessage


class TcpDetour:
    """The strategy in a detoured policy's eager slot: one blocking
    socket write per header, data and control alike, payload bytes
    included (a stream has no rendezvous).  Closes its own XR-Trace
    span, ``tcp_send`` — the header never meets the flow controller or
    the NIC's send queue."""

    name = "tcp"

    def __init__(self, socket: TcpSocket) -> None:
        self._socket = socket

    def send(self, channel: "XrdmaChannel", msg: "XrdmaMessage",
             header: "XrdmaHeader") -> ProcessGenerator:
        yield from self.send_control(channel, header)

    def send_control(self, channel: "XrdmaChannel",
                     header: "XrdmaHeader") -> ProcessGenerator:
        wire = header.payload_size + header.wire_bytes(
            channel.ctx.config.req_rsp_mode)
        try:
            yield from self._socket.send(wire, payload=header)
        except TcpError as exc:     # the peer closed (or broke) first
            channel.mark_broken(f"tcp detour: {exc}")
            return
        if header.trace is not None:
            header.trace.mark("tcp_send")

    def close(self) -> None:
        self._socket.close()


class Mock:
    """Routes a channel's messages over a parallel TCP connection."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster

    def engage(self, ctx_a: "XrdmaContext", ch_a: "XrdmaChannel",
               ctx_b: "XrdmaContext", ch_b: "XrdmaChannel"):
        """Generator: open the TCP detour and switch both channels' new
        sends to it.  The socket lives until the channel closes or
        breaks, not until :meth:`disengage`."""
        port = 52000 + self.cluster.sim.next_id("mock_port")
        host_b = ctx_b.nic.host_id
        agent_b = self.cluster.tcp_agent(host_b)
        listener = agent_b.listen(port)
        try:
            socket_a = yield from self.cluster.tcp_agent(
                ctx_a.nic.host_id).connect(host_b, port)
            socket_b = yield listener.accepted.get()
        finally:
            agent_b.unlisten(port)      # one connection per detour
        self._detour(ch_a, socket_a)
        self._detour(ch_b, socket_b)

    def disengage(self, channel: "XrdmaChannel") -> None:
        """New sends return to RDMA; what is on the socket still lands."""
        channel.protocol.restore()

    def is_engaged(self, channel: "XrdmaChannel") -> bool:
        return isinstance(channel.protocol.eager, TcpDetour)

    # ------------------------------------------------------------- internals
    def _detour(self, channel: "XrdmaChannel", socket: TcpSocket) -> None:
        if not channel.is_ready:        # died during the TCP handshake
            socket.close()
            return
        channel.protocol.detour(TcpDetour(socket))
        self.cluster.sim.spawn(self._rx_pump(channel, socket),
                               name=f"mock:rx{channel.channel_id}")

    def _rx_pump(self, channel: "XrdmaChannel",
                 socket: TcpSocket) -> ProcessGenerator:
        """Socket → receive CQ until the stream ends (the channel closed
        or broke, or the peer's did): the context's loop does everything
        else."""
        while (message := (yield socket.recv())) is not None:
            nbytes, header = message
            channel.ctx.recv_cq.push(Completion(
                wr_id=0, status=WrStatus.SUCCESS, opcode=Opcode.RECV,
                qp_num=channel.qp.qpn, byte_len=nbytes, payload=header))
