"""Shared machinery for the middleware baselines of Fig. 7.

All baselines run an echo (ping-pong) workload over the same verbs
substrate; they differ in the per-operation software overhead their real
counterparts exhibit and in whether they bounce payloads through internal
copies.  The numbers are chosen so the simulated Fig. 7 ordering matches
the paper: ibv < X-RDMA (≤10% over ibv) < UCX < libfabric < xio.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.rnic.wqe import Opcode, WorkRequest
from repro.sim.timeunits import MICROS, SECONDS

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster, Host
    from repro.verbs.cm import CmConnection


class MiddlewareEndpoint:
    """One side of a baseline connection (subclasses set the constants)."""

    NAME = "base"
    #: software path per operation, each side (post + dispatch + callbacks)
    OP_OVERHEAD_NS = 0
    #: True for middlewares that copy payloads through bounce buffers
    COPIES = False
    #: extra fixed receive-path overhead (tag matching, am handler lookup)
    RX_OVERHEAD_NS = 0

    def __init__(self, cluster: "Cluster", host_id: int,
                 conn: "CmConnection"):
        self.cluster = cluster
        self.sim = cluster.sim
        self.params = cluster.params
        self.host = cluster.host(host_id)
        self.conn = conn
        self.qp = conn.qp

    # ------------------------------------------------------------- plumbing
    @classmethod
    def connect_pair(cls, cluster: "Cluster", client_id: int, server_id: int,
                     service_port: int):
        """Generator: establish and return (client_ep, server_ep)."""
        client, server = cluster.host(client_id), cluster.host(server_id)
        s_pd = server.verbs.alloc_pd()
        s_cq = server.verbs.create_cq()
        listener = server.cm.listen(service_port, s_pd, s_cq, s_cq)
        c_pd = client.verbs.alloc_pd()
        c_cq = client.verbs.create_cq()
        conn = yield from client.cm.connect(server_id, service_port,
                                            c_pd, c_cq, c_cq)
        server_conn = yield listener.accepted.get()
        return (cls(cluster, client_id, conn),
                cls(cluster, server_id, server_conn))

    def prepost(self, count: int, size: int):
        """Generator: keep ``count`` receives posted."""
        for _ in range(count):
            yield self.host.verbs.post_recv(self.qp, WorkRequest(
                opcode=Opcode.RECV, length=size + 256))

    # ------------------------------------------------------------ data path
    def send(self, size: int):
        """Generator: one message of ``size`` bytes with this middleware's
        software costs applied."""
        overhead = self.OP_OVERHEAD_NS
        if self.COPIES:
            overhead += int(size * self.params.host_memcpy_per_byte_ns)
        if overhead:
            yield self.sim.timeout(overhead)
        yield self.host.verbs.post_send(self.qp, WorkRequest(
            opcode=Opcode.SEND, length=size, signaled=False))

    def wait_message(self):
        """Generator: block until one receive completes, polling the CQ
        every 100 ns; returns byte_len."""
        while True:
            completions = self.qp.recv_cq.poll(1)
            if completions:
                completion = completions[0]
                overhead = self.RX_OVERHEAD_NS
                if self.COPIES:
                    overhead += int(completion.byte_len
                                    * self.params.host_memcpy_per_byte_ns)
                if overhead:
                    yield self.sim.timeout(overhead)
                return completion.byte_len
            yield self.sim.timeout(100)

    # ------------------------------------------------------------ workloads
    def start_echo_server(self, iterations: int, size: int):
        """Spawn the echo loop (server side of the ping-pong)."""
        def loop():
            yield from self.prepost(min(iterations, 64) + 4, size)
            for _ in range(iterations):
                got = yield from self.wait_message()
                yield self.host.verbs.post_recv(self.qp, WorkRequest(
                    opcode=Opcode.RECV, length=size + 256))
                yield from self.send(got)
        return self.sim.spawn(loop(), name=f"{self.NAME}:echo")

    def ping_many(self, iterations: int, size: int) -> "List[int]":
        """Generator: run the ping-pong; returns one-way latencies in ns,
        the first three round trips dropped as warmup."""
        latencies: List[int] = []
        yield from self.prepost(min(iterations, 64) + 4, size)
        for index in range(iterations):
            t0 = self.sim.now
            yield from self.send(size)
            yield from self.wait_message()
            yield self.host.verbs.post_recv(self.qp, WorkRequest(
                opcode=Opcode.RECV, length=size + 256))
            if index >= 3:
                latencies.append((self.sim.now - t0) // 2)
        return latencies


class IbvPingPong(MiddlewareEndpoint):
    """``ibv_rc_pingpong``: the native-verbs ideal baseline (Sec. VII-A).

    "It has no extra overhead other than the primitive RDMA operations" —
    so every software constant stays at zero.
    """

    NAME = "ibv-pingpong"


class UcxEndpoint(MiddlewareEndpoint):
    """UCX active-message over RC (``ucx-am-rc``), the strongest comparator.

    The paper measures 5.87 µs average where X-RDMA shows 5.60 µs; the
    delta is UCX's heavier dispatch path (transport selection, AM handler
    table, worker progress), charged as fixed per-op software overhead on
    top of the identical verbs substrate.
    """

    NAME = "ucx-am-rc"
    OP_OVERHEAD_NS = 380     #: worker progress + AM dispatch per op
    RX_OVERHEAD_NS = 220     #: handler lookup on delivery


class LibfabricEndpoint(MiddlewareEndpoint):
    """libfabric reliable endpoints (``fi_msg`` over verbs).

    Measured at 6.20 µs in the paper versus X-RDMA's 5.60 µs — the
    provider abstraction (fi_* → verbs translation, completion
    conversion) costs more per operation than UCX's dispatch.
    """

    NAME = "libfabric"
    OP_OVERHEAD_NS = 700     #: provider indirection per op
    RX_OVERHEAD_NS = 450     #: CQ entry translation


class XioEndpoint(MiddlewareEndpoint):
    """Accelio (xio): the early RDMA middleware with complex abstractions.

    xio bounces messages through internal buffers and a heavyweight
    session layer; Fig. 7 shows it consistently slowest.  Modelled as the
    session-layer cost plus a per-byte copy on both sides.
    """

    NAME = "xio"
    OP_OVERHEAD_NS = 1200    #: session/task machinery per op
    RX_OVERHEAD_NS = 800
    COPIES = True            #: bounce-buffer copies on both sides


def run_pingpong(cluster: "Cluster", endpoint_cls, size: int,
                 iterations: int):
    """Build a pair on service port 8600, run the ping-pong, return
    one-way latencies (ns)."""
    def scenario():
        client, server = yield from endpoint_cls.connect_pair(
            cluster, 0, 1, 8600)
        server.start_echo_server(iterations, size)
        latencies = yield from client.ping_many(iterations, size)
        return latencies

    proc = cluster.sim.spawn(scenario())
    return cluster.sim.run_until_event(proc, limit=120 * SECONDS)
