"""XR-Ping: RDMA-native full-mesh ping (Sec. VI-B).

The original ``ping`` exercises the kernel stack, not the RDMA path; rping
is "too simple and buggy".  XR-Ping runs real X-RDMA request/response
probes between every host pair and aggregates a connection matrix at the
centralized monitor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.sim.timeunits import MILLIS, SECONDS
from repro.verbs.cm import ConnectError
from repro.xrdma.channel import ChannelBroken

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.xrdma.context import XrdmaContext

#: service port XR-Ping claims on every participating context
PING_PORT = 9990


class XrPing:
    """Full-mesh connectivity prober."""

    def __init__(self, cluster: "Cluster",
                 contexts: List["XrdmaContext"],
                 probe_timeout_ns: int = 50 * MILLIS):
        self.cluster = cluster
        self.sim = cluster.sim
        self.contexts = {ctx.nic.host_id: ctx for ctx in contexts}
        self.probe_timeout_ns = probe_timeout_ns
        #: (src, dst) -> rtt_ns, or None for unreachable
        self.matrix: Dict[Tuple[int, int], Optional[int]] = {}
        #: (src, dst) -> [(sim time, rtt_ns or None)] from the pingmesh
        self.history: Dict[Tuple[int, int],
                           List[Tuple[int, Optional[int]]]] = {}
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
                dst, PING_PORT,
                timeout_ns=max(self.probe_timeout_ns, 20 * MILLIS))
        except (ConnectError, ChannelBroken):    # unreachable host
            self.matrix[(src, dst)] = None
            return None
        t0 = self.sim.now
        try:
            request = ctx.send_request(channel, 64, payload="xr-ping")
            result = yield self.sim.any_of(
                [request.response, self.sim.timeout(self.probe_timeout_ns)])
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

    def start_pingmesh(self, interval_ns: int):
        """Continuous pingmesh (the Guo et al. system the paper cites):
        re-probes the full mesh on a cadence and accumulates per-pair RTT
        history in :attr:`history`.  Returns the spawned process."""
        self.history = {}

        def loop():
            while True:
                yield from self.run_mesh()
                now = self.sim.now
                for pair, rtt in self.matrix.items():
                    self.history.setdefault(pair, []).append((now, rtt))
                yield self.sim.timeout(interval_ns)

        return self.sim.spawn(loop(), name="xrping:mesh")

    def pair_timeline(self, src: int, dst: int):
        """RTT history for one pair from the continuous pingmesh."""
        return self.history.get((src, dst), [])

    # ------------------------------------------------------------ reporting
    def unreachable_pairs(self) -> List[Tuple[int, int]]:
        return [pair for pair, rtt in self.matrix.items() if rtt is None]

    def format_matrix(self) -> str:
        hosts = sorted(self.contexts)
        lines = ["     " + "".join(f"{h:>9}" for h in hosts)]
        for src in hosts:
            cells = []
            for dst in hosts:
                if src == dst:
                    cells.append(f"{'-':>9}")
                    continue
                rtt = self.matrix.get((src, dst))
                cells.append(f"{'FAIL':>9}" if rtt is None
                             else f"{rtt / 1000:>7.1f}us")
            lines.append(f"{src:>4} " + "".join(cells))
        return "\n".join(lines)
