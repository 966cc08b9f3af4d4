"""The switch model.

An output-queued switch with:

* per-egress-port output queues, lossless: PFC is always on, so a
  congested port pauses its upstream instead of dropping (DESIGN.md,
  "One lossless class"),
* RED-style ECN marking between ``ecn_kmin``/``ecn_kmax`` (what DCQCN's CNP
  loop feeds on),
* PFC: per-ingress-port byte accounting; crossing ``pfc_xoff`` sends a pause
  frame to the upstream transmitter, falling below ``pfc_xon`` resumes it.

Pause/resume frames travel out-of-band (they gate the upstream port at
packet boundaries), matching 802.1Qbb behaviour closely enough for the
congestion experiments (Fig. 10).

Per-switch state is deliberately O(ports): routing is a shared flyweight
:class:`~repro.topology.clos.RoutingTable` consulted by ``(role, index)``,
and the PFC ingress accounting lives in flat arrays sized at build rather
than defaultdicts.  Both keep the 1000-node emulation path's per-node
memory flat while leaving schedules byte-identical with the closure/dict
implementation they replaced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.net.device import Device
from repro.net.packet import Segment, SegmentKind
from repro.topology.link import EgressPort

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.stats import NetStats
    from repro.sim.engine import Simulator
    from repro.sim.params import SimParams
    from repro.sim.rng import RngStream
    from repro.topology.clos import RoutingTable

#: Ingress port number used for segments injected by test harnesses.  Maps
#: onto the *trailing* element of the flat ingress arrays — Python's ``-1``
#: index — which :meth:`Switch.add_port` keeps reserved.
LOCAL_PORT = -1


class Switch(Device):
    """One switch; the topology wires ports and installs shared routing."""

    #: routing-table roles (what a switch *is* in the Clos tiers)
    ROLE_TOR = 0
    ROLE_LEAF = 1
    ROLE_SPINE = 2

    def __init__(self, sim: "Simulator", params: "SimParams",
                 stats: "NetStats", rng: "RngStream", name: str):
        self.sim = sim
        self.params = params
        self.stats = stats
        self.rng = rng
        self.name = name
        self.ports: List[EgressPort] = []
        #: in_port -> (upstream device, upstream's egress-port index)
        self.neighbors: Dict[int, Tuple[Device, int]] = {}
        #: shared flyweight routing (installed by the topology), this
        #: switch's index within its role, and the role's route function
        #: bound at install: ``_route(routing_index, segment)`` -> port
        self.routing: Optional["RoutingTable"] = None
        self.routing_index: int = 0
        self._route: Callable[[int, Segment], int]     # install_routing sets
        # Flat PFC ingress accounting, index == ingress port; the final
        # element is the LOCAL_PORT (-1) slot for harness-injected traffic.
        self._ingress_bytes: List[int] = [0]
        self._paused_upstream: List[bool] = [False]

    # -------------------------------------------------------------- topology
    def add_port(self) -> int:
        """Create one egress port; returns its index."""
        index = len(self.ports)
        port = EgressPort(self.sim, self.params, name=f"{self.name}.p{index}",
                          on_dequeue=self._on_dequeue)
        self.ports.append(port)
        # Grow the flat ingress arrays in step, keeping the LOCAL_PORT
        # accumulator as the trailing element.
        self._ingress_bytes.insert(index, 0)
        self._paused_upstream.insert(index, False)
        return index

    def install_routing(self, routing: "RoutingTable", role: int,
                        index: int) -> None:
        """Adopt the fabric's shared routing table at ``(role, index)``."""
        self.routing = routing
        self.routing_index = index
        self._route = routing.router(role)

    def register_neighbor(self, in_port: int, device: Device,
                          their_port: int) -> None:
        """Record who transmits into our ``in_port`` (PFC pause target)."""
        self.neighbors[in_port] = (device, their_port)

    # ------------------------------------------------------------- data path
    def receive(self, segment: Segment, in_port: int) -> None:
        """Forward one segment: route, ECN-mark, PFC-account, enqueue.

        Nothing is dropped: the one lossless class absorbs a transient
        into PFC headroom, and pause frames bound the overshoot."""
        segment.hops += 1
        port = self.ports[self._route(self.routing_index, segment)]
        params = self.params
        size = segment.size

        if segment.kind is SegmentKind.DATA:
            if self._should_mark(port.queued_bytes):
                segment.ecn_marked = True
                self.stats.ecn_marks += 1

        segment.pfc_ingress = in_port
        segment.pfc_switch = self
        ingress = self._ingress_bytes[in_port] + size
        self._ingress_bytes[in_port] = ingress
        # Inlined _check_xoff fast path: the per-segment common case is
        # "below the threshold", one compare away.
        if (in_port != LOCAL_PORT
                and ingress > params.pfc_xoff_bytes
                and not self._paused_upstream[in_port]):
            self._paused_upstream[in_port] = True
            self.stats.pause_frames += 1
            self._notify_upstream(in_port, pause=True)
        app = getattr(segment.payload, "app_payload", None)
        if app is not None:
            trace = getattr(app, "trace", None)
            if trace is not None:
                trace.mark(f"wire_hop{segment.hops}")
        port.enqueue(segment)

    def pause_port(self, port: int, pause: bool) -> None:
        """A downstream device paused/resumed the link our ``port`` feeds.

        The wire carries one PFC class and every segment rides it, so a
        pause frame gates the whole port at its next packet boundary
        (DESIGN.md, "One lossless class")."""
        self.ports[port].set_paused(pause)

    # --------------------------------------------------------------- PFC/ECN
    def _should_mark(self, queue_bytes: int) -> bool:
        p = self.params
        if queue_bytes <= p.ecn_kmin_bytes:
            return False
        if queue_bytes >= p.ecn_kmax_bytes:
            return True
        span = p.ecn_kmax_bytes - p.ecn_kmin_bytes
        probability = p.ecn_pmax * (queue_bytes - p.ecn_kmin_bytes) / span
        return self.rng.bernoulli(probability)

    def _check_xon(self, in_port: int) -> None:
        if in_port == LOCAL_PORT:
            return
        if (self._paused_upstream[in_port]
                and self._ingress_bytes[in_port] <= self.params.pfc_xon_bytes):
            self._paused_upstream[in_port] = False
            self.stats.resume_frames += 1
            self._notify_upstream(in_port, pause=False)

    def _notify_upstream(self, in_port: int, pause: bool) -> None:
        neighbor = self.neighbors.get(in_port)
        if neighbor is None:
            return
        device, their_port = neighbor
        # Pause frames are link-local: propagation delay only.
        self.sim.call_after(
            self.params.link_propagation_ns,
            lambda: device.pause_port(their_port, pause))

    def _on_dequeue(self, segment: Segment) -> None:
        if segment.pfc_switch is not self:
            return
        in_port = segment.pfc_ingress
        self._ingress_bytes[in_port] -= segment.size
        self._check_xon(in_port)
