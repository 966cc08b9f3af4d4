"""A kernel-TCP model over the same fabric.

Used three ways:

* the establishment-time comparison of Sec. III (≈100 µs vs rdma_cm's
  ≈4 ms),
* the keepAlive discussion (TCP has SO_KEEPALIVE; raw RDMA has nothing),
* X-RDMA's **Mock** scheme (Sec. VI-C): temporarily falling back to TCP
  when the RDMA data plane misbehaves.

The model charges kernel-stack costs (syscall + copies per byte) and chunks
streams into 64 KB segments; no cwnd dynamics — TCP here is the *fallback
control path*, not the subject of study.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.net.packet import Segment, SegmentKind
from repro.sim.events import AnyOf
from repro.sim.resources import Store
from repro.sim.timeunits import SECONDS

if TYPE_CHECKING:  # pragma: no cover
    from repro.rnic.nic import Rnic
    from repro.sim.engine import Simulator
    from repro.sim.params import SimParams

#: Control-handler slot the TCP stack claims on the NIC.
TCP_PORT = 1
_CHUNK = 64 * 1024


class TcpError(RuntimeError):
    """Connection failed or was refused."""


@dataclass
class _TcpPacket:
    kind: str                  #: syn | syn_ack | data | fin
    conn_id: Tuple[int, int]
    src_host: int
    service_port: int
    nbytes: int = 0
    last: bool = False
    msg_payload: Any = None
    port: int = TCP_PORT       #: NIC control-handler dispatch key


class TcpSocket:
    """One established TCP connection endpoint."""

    def __init__(self, agent: "TcpAgent", conn_id: Tuple[int, int],
                 remote_host: int, service_port: int):
        self.agent = agent
        self.conn_id = conn_id
        self.remote_host = remote_host
        self.service_port = service_port
        self.incoming: Store = Store(agent.sim, name=f"tcp{conn_id}:in")
        self.closed = False
        #: instant by which every message received so far has reached
        #: ``incoming``; a FIN's end-of-stream must not overtake them
        self._rx_settled_ns = 0

    def send(self, nbytes: int, payload: Any = None):
        """Generator: write ``nbytes`` (one application message)."""
        if self.closed:
            raise TcpError("socket closed")
        params = self.agent.params
        # Syscall + copy costs on the send side.
        yield self.agent.sim.timeout(
            params.tcp_per_msg_overhead_ns
            + int(nbytes * params.tcp_per_byte_ns))
        offset = 0
        while True:
            chunk = min(_CHUNK, nbytes - offset)
            last = offset + chunk >= nbytes
            self.agent._send(self.remote_host, _TcpPacket(
                kind="data", conn_id=self.conn_id,
                src_host=self.agent.nic.host_id,
                service_port=self.service_port, nbytes=chunk, last=last,
                msg_payload=payload if last else None))
            offset += chunk
            if last:
                break

    def recv(self):
        """Event: the next complete application message ``(nbytes,
        payload)``, or ``None`` once the stream has ended — closed here,
        or by the peer after everything it sent has been handed over."""
        return self.incoming.get()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.agent._send(self.remote_host, _TcpPacket(
            kind="fin", conn_id=self.conn_id,
            src_host=self.agent.nic.host_id,
            service_port=self.service_port))
        self.agent.sockets.pop(self.conn_id, None)
        self.incoming.put_nowait(None)


class TcpListener:
    def __init__(self, sim: "Simulator", service_port: int):
        self.service_port = service_port
        self.accepted: Store = Store(sim, name=f"tcplisten{service_port}")


class TcpAgent:
    """Per-host kernel TCP stand-in (one per NIC: it owns the NIC's
    ``TCP_PORT`` control handler; get it from ``Cluster.tcp_agent``)."""

    def __init__(self, sim: "Simulator", params: "SimParams", nic: "Rnic"):
        if TCP_PORT in nic.control_handlers:
            raise ValueError(
                f"host {nic.host_id} already has a TCP stack; a second "
                f"agent would steal its segments")
        self.sim = sim
        self.params = params
        self.nic = nic
        self.listeners: Dict[int, TcpListener] = {}
        self.sockets: Dict[Tuple[int, int], TcpSocket] = {}
        self._conn_ids = itertools.count(1)
        self._pending_syn: Dict[Tuple[int, int], Any] = {}
        self._rx_accumulator: Dict[Tuple[int, int], int] = {}
        nic.control_handlers[TCP_PORT] = self._on_segment

    # ---------------------------------------------------------------- server
    def listen(self, service_port: int) -> TcpListener:
        if service_port in self.listeners:
            raise ValueError(f"TCP port {service_port} already listening")
        listener = TcpListener(self.sim, service_port)
        self.listeners[service_port] = listener
        return listener

    def unlisten(self, service_port: int) -> None:
        """Stop accepting on ``service_port``; accepted sockets live on."""
        del self.listeners[service_port]

    # ---------------------------------------------------------------- client
    def connect(self, remote_host: int, service_port: int,
                timeout_ns: int = 2 * SECONDS):
        """Generator: 3-way handshake (≈100 µs, Sec. III Issue 3)."""
        yield self.sim.timeout(self.params.tcp_connect_ns)
        # Numbered per agent: with the host, one key at both ends.
        conn_id = (self.nic.host_id, next(self._conn_ids))
        reply = self.sim.event(f"tcp:synack{conn_id}")
        self._pending_syn[conn_id] = reply
        self._send(remote_host, _TcpPacket(
            kind="syn", conn_id=conn_id, src_host=self.nic.host_id,
            service_port=service_port))
        result = yield AnyOf(self.sim, [reply, self.sim.timeout(timeout_ns)])
        self._pending_syn.pop(conn_id, None)
        if reply not in result:
            raise TcpError(f"connect to {remote_host}:{service_port} timed out")
        if reply.value is None:
            raise TcpError(f"{remote_host}:{service_port} refused")
        socket = TcpSocket(self, conn_id, remote_host, service_port)
        self.sockets[conn_id] = socket
        return socket

    # -------------------------------------------------------------- delivery
    def _send(self, remote_host: int, packet: _TcpPacket) -> None:
        self.nic.transmit(Segment(
            src=self.nic.host_id, dst=remote_host,
            size=max(packet.nbytes, 64), kind=SegmentKind.CONTROL,
            payload=packet))

    def _on_segment(self, segment: Segment) -> None:
        packet: _TcpPacket = segment.payload
        if packet.kind == "syn":
            listener = self.listeners.get(packet.service_port)
            if listener is None:
                self._send(packet.src_host, _TcpPacket(
                    kind="syn_ack", conn_id=packet.conn_id,
                    src_host=self.nic.host_id,
                    service_port=packet.service_port, nbytes=0,
                    msg_payload=None, last=False))
                return
            socket = TcpSocket(self, packet.conn_id, packet.src_host,
                               packet.service_port)
            self.sockets[packet.conn_id] = socket
            listener.accepted.put_nowait(socket)
            self._send(packet.src_host, _TcpPacket(
                kind="syn_ack", conn_id=packet.conn_id,
                src_host=self.nic.host_id,
                service_port=packet.service_port, nbytes=1, last=True))
        elif packet.kind == "syn_ack":
            pending = self._pending_syn.get(packet.conn_id)
            if pending is not None and not pending.triggered:
                pending.succeed(True if packet.last else None)
        elif packet.kind == "data":
            socket = self.sockets.get(packet.conn_id)
            if socket is None:
                return
            total = self._rx_accumulator.get(packet.conn_id, 0) + packet.nbytes
            if packet.last:
                self._rx_accumulator.pop(packet.conn_id, None)
                # Receive-side kernel costs before the app sees the message.
                ready_ns = (self.sim.now + self.params.tcp_per_msg_overhead_ns
                            + int(total * self.params.tcp_per_byte_ns))
                socket._rx_settled_ns = max(socket._rx_settled_ns, ready_ns)
                self.sim.call_at(
                    ready_ns,
                    lambda s=socket, t=total, p=packet.msg_payload:
                        s.incoming.put_nowait((t, p)))
            else:
                self._rx_accumulator[packet.conn_id] = total
        elif packet.kind == "fin":
            socket = self.sockets.pop(packet.conn_id, None)
            if socket is not None:
                socket.closed = True
                # Same-instant timers fire in creation order, so the end of
                # stream lands behind every delivery scheduled above.
                self.sim.call_at(max(self.sim.now, socket._rx_settled_ns),
                                 lambda s=socket: s.incoming.put_nowait(None))
