"""Flow-aggregate (fluid) background channels for cluster-scale emulation.

At 1000+ emulated hosts, simulating every background flow packet-by-packet
is what makes cluster runs infeasible: event count grows with total
traffic, not with the traffic under study.  An
:class:`AggregateTraffic` models background flows as *rate sums* instead —
each flow charges its rate onto the egress ports its ECMP path traverses
(computed arithmetically via
:meth:`~repro.topology.clos.RoutingTable.flow_path`, no events), and the
ports serialize foreground segments at the residual capacity
(:meth:`~repro.topology.link.EgressPort.set_background_load`).

Only foreground flows pay packet-level event cost; background bytes are
settled analytically (``rate × elapsed``) when the scenario calls
:meth:`AggregateTraffic.settle`.  Everything is deterministic — paths come
from the same ECMP arithmetic the switches use, and no wall-clock or
address-dependent state is involved — so fleet aggregates stay
jobs-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.topology.link import EgressPort


@dataclass
class AggregateFlow:
    """One fluid background flow: a rate charged along an ECMP path."""

    flow_id: int
    src: int
    dst: int
    rate_bps: float
    started_ns: int
    #: the switch egress ports the flow's rate is charged on
    path: List[Tuple[int, int, int]]
    bytes_settled: float = 0.0


class AggregateTraffic:
    """Manages fluid background flows over one cluster's fabric.

    Usage::

        agg = AggregateTraffic(cluster)
        for src, dst in background_pairs:
            agg.add_flow(src, dst, rate_bps=2e9)
        agg.flush()               # install residual-bandwidth reservations
        ... run foreground traffic ...
        agg.settle()              # close byte accounting at sim-now

    Flows may be added mid-run; each :meth:`flush` reinstalls the
    per-port load sums for ports whose membership changed.  Endpoints do
    not need attached devices — unattached host ids route to their
    canonical ToR down-port slot, which is exactly what lets one fleet
    worker emulate a 1024-host cluster while attaching a single rack.
    """

    #: background flow ids live far above foreground QP/flow ids so the
    #: ECMP hash never aliases a studied flow's path decisions
    FLOW_ID_BASE = 1 << 40

    def __init__(self, cluster: "Cluster"):
        self.sim = cluster.sim
        self.topology = cluster.topology
        self.routing = cluster.topology.routing
        self.flows: List[AggregateFlow] = []
        self._next_flow = AggregateTraffic.FLOW_ID_BASE
        #: (role, index, port) -> charged bps
        self._port_load: Dict[Tuple[int, int, int], float] = {}
        self._dirty: Set[Tuple[int, int, int]] = set()

    # -------------------------------------------------------------- flows
    def add_flow(self, src: int, dst: int, rate_bps: float) -> AggregateFlow:
        """Start a background flow of ``rate_bps`` from ``src`` to ``dst``."""
        if rate_bps < 0:
            raise ValueError(f"rate_bps must be >= 0, got {rate_bps}")
        flow_id = self._next_flow
        self._next_flow += 1
        path = self.routing.flow_path(flow_id, src, dst)
        flow = AggregateFlow(flow_id=flow_id, src=src, dst=dst,
                             rate_bps=rate_bps, started_ns=self.sim.now,
                             path=path)
        self.flows.append(flow)
        for hop in path:
            self._port_load[hop] = self._port_load.get(hop, 0.0) + rate_bps
            self._dirty.add(hop)
        return flow

    def flush(self) -> int:
        """Install pending load changes onto the fabric's egress ports.

        Returns the number of ports updated.  Charging is deferred to a
        flush so a setup loop adding thousands of flows touches each
        port's serialization cache once, not once per flow.
        """
        updated = 0
        for role, index, port_index in sorted(self._dirty):
            port = self._port_for(role, index, port_index)
            port.set_background_load(
                self._port_load[(role, index, port_index)])
            updated += 1
        self._dirty.clear()
        return updated

    # ---------------------------------------------------------- accounting
    def settle(self) -> float:
        """Settle the flows' byte accounting up to sim-now; returns the
        total background bytes carried so far (all flows, all time)."""
        now = self.sim.now
        for flow in self.flows:
            flow.bytes_settled += \
                flow.rate_bps * (now - flow.started_ns) / 8e9
            flow.started_ns = now
        return self.total_bytes()

    def total_bytes(self) -> float:
        """Background bytes settled so far (call :meth:`settle` first to
        include the in-flight interval)."""
        return sum(flow.bytes_settled for flow in self.flows)

    # ------------------------------------------------------------ internal
    def _port_for(self, role: int, index: int,
                  port_index: int) -> "EgressPort":
        return self.topology.switch_for(role, index).ports[port_index]
