"""XR-Ping: RDMA-native full-mesh ping (Sec. VI-B).

The original ``ping`` exercises the kernel stack, not the RDMA path; rping
is "too simple and buggy".  XR-Ping runs real X-RDMA request/response
probes between every host pair and aggregates a connection matrix at the
centralized monitor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.sim.timeunits import MILLIS
from repro.verbs.cm import ConnectError
from repro.xrdma.channel import ChannelBroken

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.xrdma.context import XrdmaContext

#: service port XR-Ping claims on every participating context
PING_PORT = 9990
#: how long a probe waits for its connection, then for its pong
PROBE_TIMEOUT_NS = 50 * MILLIS


class XrPing:
    """Full-mesh connectivity prober."""

    def __init__(self, cluster: "Cluster",
                 contexts: List["XrdmaContext"]):
        self.cluster = cluster
        self.sim = cluster.sim
        self.contexts = {ctx.nic.host_id: ctx for ctx in contexts}
        #: (src, dst) -> rtt_ns, or None for unreachable
        self.matrix: Dict[Tuple[int, int], Optional[int]] = {}
        for ctx in contexts:
            if PING_PORT not in ctx.cm.listeners:
                ctx.listen(PING_PORT)
            self.sim.spawn(self._responder(ctx),
                           name=f"xrping:srv{ctx.nic.host_id}")

    def _responder(self, ctx: "XrdmaContext"):
        """Echo server: answer every ping request immediately."""
        while True:
            msg = yield ctx.incoming.get()
            if msg.is_request and msg.payload == "xr-ping":
                ctx.send_response(msg, 64, payload="xr-pong")
            else:
                # Not ours: push back for the application.
                ctx.deliver(msg)

    # ------------------------------------------------------------- probing
    def probe(self, src: int, dst: int):
        """Generator: one ping; records and returns rtt_ns or None."""
        ctx = self.contexts[src]
        try:
            channel = yield from ctx.connect(
                dst, PING_PORT, timeout_ns=PROBE_TIMEOUT_NS)
        except (ConnectError, ChannelBroken):    # unreachable host
            self.matrix[(src, dst)] = None
            return None
        t0 = self.sim.now
        try:
            request = ctx.send_request(channel, 64, payload="xr-ping")
            result = yield self.sim.any_of(
                [request.response, self.sim.timeout(PROBE_TIMEOUT_NS)])
            if request.response in result:
                rtt = self.sim.now - t0
            else:
                rtt = None
        except ChannelBroken:
            rtt = None
        self.matrix[(src, dst)] = rtt
        yield from ctx.close_channel(channel)
        return rtt

    def run_mesh(self):
        """Generator: probe every ordered pair; returns the matrix."""
        hosts = sorted(self.contexts)
        for src in hosts:
            for dst in hosts:
                if src != dst:
                    yield from self.probe(src, dst)
        return self.matrix

    # ------------------------------------------------------------ reporting
    def unreachable_pairs(self) -> List[Tuple[int, int]]:
        return [pair for pair, rtt in self.matrix.items() if rtt is None]
