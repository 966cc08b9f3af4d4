"""Mock: temporary TCP fallback (Sec. VI-C, "Switch between RDMA and TCP").

When the RDMA data plane misbehaves (heavy congestion, incast storms,
protocol-stack collapse) X-RDMA can reroute a channel's traffic over kernel
TCP.  Throughput drops, but the service survives.

Engage per channel pair::

    mock = Mock(cluster)
    yield from mock.engage(client_ctx, client_ch, server_ctx, server_ch)
    client_ctx.send_msg(client_ch, 4096)      # now travels over TCP
    mock.disengage(client_ch)                  # back to RDMA
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, Tuple

from repro.baselines.tcpstack import TcpAgent
from repro.xrdma.message import MessageKind, XrdmaHeader, XrdmaMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.xrdma.channel import XrdmaChannel
    from repro.xrdma.context import XrdmaContext

_mock_ports = itertools.count(52000)


class Mock:
    """Routes a channel's messages over a parallel TCP connection."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.sim = cluster.sim
        self._agents: Dict[int, TcpAgent] = {}
        self._routes: Dict[int, Tuple] = {}     # channel_id -> (socket, ctx)

    def _agent(self, host_id: int) -> TcpAgent:
        agent = self._agents.get(host_id)
        if agent is None:
            agent = self.cluster.tcp_agent(host_id)
            self._agents[host_id] = agent
        return agent

    def engage(self, ctx_a: "XrdmaContext", ch_a: "XrdmaChannel",
               ctx_b: "XrdmaContext", ch_b: "XrdmaChannel"):
        """Generator: open the TCP detour and patch both channels' sends."""
        port = next(_mock_ports)
        agent_a = self._agent(ctx_a.nic.host_id)
        agent_b = self._agent(ctx_b.nic.host_id)
        listener = agent_b.listen(port)
        socket_a = yield from agent_a.connect(ctx_b.nic.host_id, port)
        socket_b = yield listener.accepted.get()
        self._patch(ctx_a, ch_a, socket_a)
        self._patch(ctx_b, ch_b, socket_b)
        self.sim.spawn(self._rx_loop(ctx_a, ch_a, socket_a))
        self.sim.spawn(self._rx_loop(ctx_b, ch_b, socket_b))

    def disengage(self, channel: "XrdmaChannel") -> None:
        route = self._routes.pop(channel.channel_id, None)
        if route is None:
            return
        socket, original_queue = route
        channel.queue_message = original_queue       # restore RDMA path
        socket.close()

    def is_engaged(self, channel: "XrdmaChannel") -> bool:
        return channel.channel_id in self._routes

    # ------------------------------------------------------------- internals
    def _patch(self, ctx: "XrdmaContext", channel: "XrdmaChannel",
               socket) -> None:
        original_queue = channel.queue_message

        def tcp_queue(msg: XrdmaMessage) -> XrdmaMessage:
            msg.channel = channel
            msg.created_at = self.sim.now
            msg.header = XrdmaHeader(
                kind=msg.kind, seq=-1, ack=-1, msg_id=msg.msg_id,
                payload_size=msg.payload_size,
                request_msg_id=msg.request_msg_id,
                user_payload=msg.payload)
            msg.acked = self.sim.event("mock:acked")
            msg.acked.defused = True
            if msg.kind is MessageKind.REQUEST:
                msg.response = self.sim.event("mock:resp")
                msg.response.defused = True
                channel.pending_requests[msg.msg_id] = msg
            self.sim.spawn(self._tcp_send(channel, socket, msg))
            return msg

        channel.queue_message = tcp_queue
        self._routes[channel.channel_id] = (socket, original_queue)

    def _tcp_send(self, channel: "XrdmaChannel", socket, msg: XrdmaMessage):
        yield from socket.send(msg.payload_size, payload=msg)
        channel.stats["tx_msgs"] += 1
        channel.stats["tx_bytes"] += msg.payload_size
        if msg.acked is not None and not msg.acked.triggered:
            # TCP delivery is kernel-acked; treat send completion as ack.
            msg.acked.succeed(0)

    def _rx_loop(self, ctx: "XrdmaContext", channel: "XrdmaChannel", socket):
        while not socket.closed:
            nbytes, sent_msg = yield socket.recv()
            if sent_msg is None:
                continue
            delivered = XrdmaMessage(
                kind=sent_msg.kind, payload_size=nbytes,
                payload=sent_msg.payload, channel=channel,
                request_msg_id=sent_msg.request_msg_id)
            delivered.header = sent_msg.header
            delivered.delivered_at = self.sim.now
            channel.stats["rx_msgs"] += 1
            channel.stats["rx_bytes"] += nbytes
            if delivered.kind is MessageKind.RESPONSE:
                request = channel.pending_requests.pop(
                    sent_msg.request_msg_id, None)
                if request is not None and request.response is not None \
                        and not request.response.triggered:
                    request.response.succeed(delivered)
                    continue
            if delivered.kind is MessageKind.REQUEST \
                    and channel.on_request is not None:
                channel.on_request(delivered)
                continue
            ctx.deliver(delivered)
