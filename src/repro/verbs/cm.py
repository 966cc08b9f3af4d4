"""librdmacm-shaped connection management.

The full REQ/REP/RTU handshake plus both sides' QP setup reproduces the
paper's pain point: ≈4 ms per establishment versus ≈100 µs for TCP
(Sec. III, Issue 3).  Both sides may supply a *recycled* QP (RESET state) to
skip the expensive ``create_qp`` — the hook the X-RDMA QP cache uses.

Only establishment is modelled.  Teardown belongs to the layer above (the
middleware's CLOSE header, then a QP reset into its cache), so the agent
keeps no record of a connection once it has handed it over.

Usage (inside sim processes)::

    listener = cm.listen(service_port=7000)
    conn = yield from cm.connect(remote_host=1, service_port=7000,
                                 pd=pd, send_cq=cq, recv_cq=cq)
    peer_conn = yield listener.accepted.get()
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.net.packet import Segment, SegmentKind
from repro.rnic.qp import QpState, QueuePair, SharedReceiveQueue
from repro.sim.events import AnyOf, Event
from repro.sim.timeunits import MICROS, SECONDS

if TYPE_CHECKING:  # pragma: no cover
    from repro.rnic.cq import CompletionQueue
    from repro.rnic.mr import ProtectionDomain
    from repro.rnic.nic import Rnic
    from repro.sim.engine import Simulator
    from repro.sim.params import SimParams
    from repro.sim.resources import Store
    from repro.verbs.api import VerbsContext

#: Control-plane "port" the CM agent claims on the NIC.
CM_PORT = 0
#: Wire size of CM messages.
_CM_BYTES = 256
#: Per-message software processing at each end of the handshake.
_CM_PROC_NS = 150 * MICROS


class ConnectError(RuntimeError):
    """Establishment failed (timeout, rejection, or dead peer).

    ``qp`` is the QP the failed attempt was holding (recycled or freshly
    created), so the caller can recycle or destroy it instead of leaking
    it — the connect-storm contract.
    """

    def __init__(self, message: str,
                 qp: Optional[QueuePair] = None) -> None:
        super().__init__(message)
        self.qp = qp


class _CmKind(Enum):
    REQ = auto()
    REP = auto()
    RTU = auto()
    REJ = auto()


@dataclass
class _CmMessage:
    kind: _CmKind
    conn_id: int
    src_host: int
    service_port: int
    qpn: int = 0
    private_data: Optional[dict] = None
    port: int = CM_PORT      #: control-handler dispatch key


@dataclass
class CmConnection:
    """An established RC connection, as seen by one side."""

    conn_id: int
    qp: QueuePair
    local_host: int
    remote_host: int
    service_port: int
    private_data: Optional[dict] = None


class CmListener:
    """Passive side of a service port; accepted connections land in a Store."""

    def __init__(self, sim: "Simulator", service_port: int,
                 pd: "ProtectionDomain", send_cq: "CompletionQueue",
                 recv_cq: "CompletionQueue",
                 srq: Optional[SharedReceiveQueue] = None,
                 qp_provider: Optional[Callable[[], Optional[QueuePair]]] = None,
                 private_data: Optional[dict] = None):
        from repro.sim.resources import Store
        self.service_port = service_port
        self.pd = pd
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.srq = srq
        #: returns a recycled RESET-state QP, or None to create fresh
        self.qp_provider = qp_provider
        self.private_data = private_data
        self.accepted: Store = Store(sim, name=f"listener{service_port}")


class CmAgent:
    """One per host; owns the CM control channel on the NIC."""

    def __init__(self, sim: "Simulator", params: "SimParams",
                 verbs: "VerbsContext", nic: "Rnic"):
        self.sim = sim
        self.params = params
        self.verbs = verbs
        self.nic = nic
        self.listeners: Dict[int, CmListener] = {}
        #: ids of the connections this agent initiates (REP/REJ echo them)
        self._conn_ids = itertools.count(1)
        self._pending: Dict[int, Event] = {}          # conn_id -> REP/REJ event
        self.established = 0
        nic.control_handlers[CM_PORT] = self._on_segment

    # -------------------------------------------------------------- passive
    def listen(self, service_port: int, pd: "ProtectionDomain",
               send_cq: "CompletionQueue", recv_cq: "CompletionQueue",
               srq: Optional[SharedReceiveQueue] = None,
               qp_provider: Optional[Callable[[], Optional[QueuePair]]] = None,
               private_data: Optional[dict] = None) -> CmListener:
        if service_port in self.listeners:
            raise ValueError(f"port {service_port} already listening")
        listener = CmListener(self.sim, service_port, pd, send_cq, recv_cq,
                              srq=srq, qp_provider=qp_provider,
                              private_data=private_data)
        self.listeners[service_port] = listener
        return listener

    def unlisten(self, listener: CmListener) -> None:
        """Withdraw ``listener``'s port: later REQs to it get REJ."""
        if self.listeners.get(listener.service_port) is listener:
            del self.listeners[listener.service_port]

    # --------------------------------------------------------------- active
    def connect(self, remote_host: int, service_port: int,
                pd: "ProtectionDomain", send_cq: "CompletionQueue",
                recv_cq: "CompletionQueue",
                qp: Optional[QueuePair] = None,
                srq: Optional[SharedReceiveQueue] = None,
                private_data: Optional[dict] = None,
                timeout_ns: int = 2 * SECONDS,
                setup_trace=None):
        """Generator: establish a connection; ``yield from`` it.

        ``qp`` may be a recycled RESET-state QP (the QP-cache fast path);
        otherwise a fresh QP is created at full cost.  ``setup_trace`` is
        an optional XR-Trace :class:`TraceContext`; marks are passive
        timestamp captures, so tracing stays schedule-neutral.
        """
        yield self.sim.timeout(self.params.cm_resolve_ns)
        if setup_trace is not None:
            setup_trace.mark("cm_resolve")

        if qp is None:
            qp = yield self.verbs.create_qp(pd, send_cq, recv_cq, srq=srq)
        elif qp.state is not QpState.RESET:
            raise ConnectError("recycled QP must be in RESET state", qp=qp)
        yield self.verbs.modify_qp(qp, QpState.INIT)
        if setup_trace is not None:
            setup_trace.mark("qp_setup")

        conn_id = next(self._conn_ids)
        reply_ev = self.sim.event(f"cm:rep{conn_id}")
        self._pending[conn_id] = reply_ev
        self._send(remote_host, _CmMessage(
            kind=_CmKind.REQ, conn_id=conn_id, src_host=self.nic.host_id,
            service_port=service_port, qpn=qp.qpn,
            private_data=private_data))

        result = yield AnyOf(self.sim, [reply_ev,
                                        self.sim.timeout(timeout_ns)])
        self._pending.pop(conn_id, None)
        if reply_ev not in result:
            raise ConnectError(
                f"connect to host {remote_host}:{service_port} timed out",
                qp=qp)
        reply: _CmMessage = reply_ev.value
        if reply.kind is _CmKind.REJ:
            raise ConnectError(
                f"host {remote_host} rejected port {service_port}", qp=qp)

        yield self.sim.timeout(_CM_PROC_NS)       # REP processing
        if setup_trace is not None:
            setup_trace.mark("handshake")
        yield self.verbs.modify_qp(qp, QpState.RTR,
                                   remote_host=remote_host,
                                   remote_qpn=reply.qpn)
        yield self.verbs.modify_qp(qp, QpState.RTS)
        if setup_trace is not None:
            setup_trace.mark("qp_to_rts")
        self._send(remote_host, _CmMessage(
            kind=_CmKind.RTU, conn_id=conn_id, src_host=self.nic.host_id,
            service_port=service_port, qpn=qp.qpn))

        self.established += 1
        return CmConnection(
            conn_id=conn_id, qp=qp, local_host=self.nic.host_id,
            remote_host=remote_host, service_port=service_port,
            private_data=reply.private_data)

    # ------------------------------------------------------------- internals
    def _send(self, remote_host: int, message: _CmMessage) -> None:
        self.nic.transmit(Segment(
            src=self.nic.host_id, dst=remote_host, size=_CM_BYTES,
            kind=SegmentKind.CONTROL, payload=message))

    def _on_segment(self, segment: Segment) -> None:
        message: _CmMessage = segment.payload
        if message.kind is _CmKind.REQ:
            self.sim.spawn(self._handle_request(message),
                           name=f"cm:req{message.conn_id}")
        elif message.kind in (_CmKind.REP, _CmKind.REJ):
            pending = self._pending.get(message.conn_id)
            if pending is not None and not pending.triggered:
                pending.succeed(message)
        elif message.kind is _CmKind.RTU:
            # Passive side is fully established; nothing further to do —
            # the QP was moved to RTS when REP was sent (matching the
            # practical rdma_cm pattern of RTR+RTS on accept).
            pass

    def _handle_request(self, request: _CmMessage):
        yield self.sim.timeout(_CM_PROC_NS)
        listener = self.listeners.get(request.service_port)
        if listener is None:
            self._send(request.src_host, _CmMessage(
                kind=_CmKind.REJ, conn_id=request.conn_id,
                src_host=self.nic.host_id,
                service_port=request.service_port))
            return
        qp: Optional[QueuePair] = None
        if listener.qp_provider is not None:
            qp = listener.qp_provider()
        if qp is None:
            qp = yield self.verbs.create_qp(
                listener.pd, listener.send_cq, listener.recv_cq,
                srq=listener.srq)
        yield self.verbs.modify_qp(qp, QpState.INIT)
        yield self.verbs.modify_qp(qp, QpState.RTR,
                                   remote_host=request.src_host,
                                   remote_qpn=request.qpn)
        yield self.verbs.modify_qp(qp, QpState.RTS)
        self._send(request.src_host, _CmMessage(
            kind=_CmKind.REP, conn_id=request.conn_id,
            src_host=self.nic.host_id, service_port=request.service_port,
            qpn=qp.qpn, private_data=listener.private_data))
        self.established += 1
        listener.accepted.put_nowait(CmConnection(
            conn_id=request.conn_id, qp=qp, local_host=self.nic.host_id,
            remote_host=request.src_host,
            service_port=request.service_port,
            private_data=request.private_data))
