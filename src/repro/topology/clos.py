"""Three-tier Clos fabric builder (Fig. 1: spine / leaf / ToR).

The builder creates switches, wires full-duplex links, installs one shared
:class:`RoutingTable`, and exposes :meth:`ClosTopology.attach` for host NICs.

Routing is destination-based:

* a ToR delivers to directly attached hosts, otherwise hashes the flow over
  its leaf uplinks;
* a leaf delivers down to a ToR in its pod, otherwise hashes over spines;
* a spine hashes over the destination pod's leaves.

The ECMP hash is an arithmetic function of ``(flow_id, src, dst, salt)`` so
runs are reproducible regardless of ``PYTHONHASHSEED``.

Routing state is a **flyweight**: every switch consults the *same*
:class:`RoutingTable` (a handful of integers plus the host-slot array),
keyed by its role and role index.  Per-switch state is therefore O(ports),
not O(cluster) — the property the 1000-node emulation path depends on.
Before this, each switch held a route closure capturing the whole
``ClosTopology``, so per-node routing state grew with the cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.net.device import Device
from repro.net.packet import Segment
from repro.switching.switch import Switch
from repro.topology.link import EgressPort

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.stats import NetStats
    from repro.sim.engine import Simulator
    from repro.sim.params import SimParams
    from repro.sim.rng import RngRegistry


def _ecmp_hash(flow_id: int, src: int, dst: int, salt: int, n: int) -> int:
    """Stable ECMP choice in ``[0, n)``."""
    key = (flow_id * 1_000_003
           + src * 10_007
           + dst * 97
           + salt * 31)
    return key % n


@dataclass
class _HostSlot:
    tor: Switch
    tor_down_port: int           #: ToR egress port pointing at the host
    device: Optional[Device] = None
    uplink: Optional[EgressPort] = None
    #: additional ToR down-ports for multi-port NICs (dual-port CX4-Lx)
    extra_down_ports: List[int] = field(default_factory=list)


class RoutingTable:
    """The shared destination-based routing function for one fabric.

    One instance serves every switch: a switch presents its role
    (:attr:`Switch.ROLE_TOR` / ``ROLE_LEAF`` / ``ROLE_SPINE``) and role
    index, and the table computes the egress port from five dimension
    integers plus the host-slot array.  Decisions are bit-for-bit the same
    arithmetic the per-switch closures used to perform, so schedules (and
    golden digests) are unchanged.
    """

    __slots__ = ("n_pods", "leaves_per_pod", "tors_per_pod",
                 "hosts_per_tor", "n_spines", "_slots")

    def __init__(self, n_pods: int, leaves_per_pod: int, tors_per_pod: int,
                 hosts_per_tor: int, n_spines: int,
                 slots: List[Optional[_HostSlot]]):
        self.n_pods = n_pods
        self.leaves_per_pod = leaves_per_pod
        self.tors_per_pod = tors_per_pod
        self.hosts_per_tor = hosts_per_tor
        self.n_spines = n_spines
        self._slots = slots          # shared with the owning ClosTopology

    # ------------------------------------------------------------- dispatch
    def router(self, role: int) -> Callable[[int, Segment], int]:
        """The route function of one switch role: ``fn(index, segment)``
        is the egress port for ``segment`` at the switch ``(role,
        index)``.  A switch binds it once, at install."""
        if role == Switch.ROLE_TOR:
            return self._route_tor
        if role == Switch.ROLE_LEAF:
            return self._route_leaf
        return self._route_spine

    # ------------------------------------------------------------ per-role
    def _route_tor(self, tor_index: int, segment: Segment) -> int:
        dst = segment.dst
        if dst // self.hosts_per_tor == tor_index:
            slot = self._slots[dst]
            if slot is None or slot.device is None:
                raise RuntimeError(
                    f"segment for unattached host {dst}")
            if slot.extra_down_ports:
                # Multi-port host: spread flows across its links.
                ports = [slot.tor_down_port] + slot.extra_down_ports
                return ports[_ecmp_hash(segment.flow_id, segment.src, dst,
                                        salt=dst, n=len(ports))]
            return dst % self.hosts_per_tor
        choice = _ecmp_hash(segment.flow_id, segment.src, dst,
                            salt=tor_index, n=self.leaves_per_pod)
        return self.hosts_per_tor + choice

    def _route_leaf(self, leaf_index: int, segment: Segment) -> int:
        pod = leaf_index // self.leaves_per_pod
        dst = segment.dst
        if self.host_pod(dst) == pod:
            return (dst // self.hosts_per_tor) % self.tors_per_pod
        choice = _ecmp_hash(segment.flow_id, segment.src, dst,
                            salt=1000 + leaf_index, n=self.n_spines)
        return self.tors_per_pod + choice

    def _route_spine(self, spine_index: int, segment: Segment) -> int:
        dst = segment.dst
        pod = self.host_pod(dst)
        leaf_choice = _ecmp_hash(segment.flow_id, segment.src, dst,
                                 salt=2000 + spine_index,
                                 n=self.leaves_per_pod)
        # Spine down-ports were added pod-major, leaf-minor.
        return pod * self.leaves_per_pod + leaf_choice

    # ----------------------------------------------------------- dimensions
    def host_pod(self, host: int) -> int:
        return host // (self.tors_per_pod * self.hosts_per_tor)

    def host_tor_index(self, host: int) -> int:
        return host // self.hosts_per_tor

    # ------------------------------------------------------ path enumeration
    def flow_path(self, flow_id: int, src: int, dst: int) -> List[Tuple[int, int, int]]:
        """The ``(role, role_index, egress_port)`` switch hops a flow takes.

        Pure arithmetic over the same ECMP decisions :meth:`route` makes —
        no segments, no events, and (unlike :meth:`route`) no requirement
        that either endpoint is attached: the down-port of an unattached
        single-port destination is its canonical ``dst % hosts_per_tor``
        slot.  This is what flow-aggregate channels use to charge
        background load onto the ports a flow would traverse.
        """
        hops: List[Tuple[int, int, int]] = []
        if src == dst:
            return hops
        hpt = self.hosts_per_tor
        src_tor = src // hpt
        dst_tor = dst // hpt

        def tor_down_port() -> int:
            slot = self._slots[dst]
            if slot is not None and slot.device is not None \
                    and slot.extra_down_ports:
                ports = [slot.tor_down_port] + slot.extra_down_ports
                return ports[_ecmp_hash(flow_id, src, dst, salt=dst,
                                        n=len(ports))]
            return dst % hpt

        if src_tor == dst_tor:
            hops.append((Switch.ROLE_TOR, src_tor, tor_down_port()))
            return hops
        up = hpt + _ecmp_hash(flow_id, src, dst, salt=src_tor,
                              n=self.leaves_per_pod)
        hops.append((Switch.ROLE_TOR, src_tor, up))
        src_pod = self.host_pod(src)
        leaf_index = src_pod * self.leaves_per_pod + (up - hpt)
        if self.host_pod(dst) == src_pod:
            hops.append((Switch.ROLE_LEAF, leaf_index,
                         dst_tor % self.tors_per_pod))
        else:
            spine_choice = _ecmp_hash(flow_id, src, dst,
                                      salt=1000 + leaf_index, n=self.n_spines)
            hops.append((Switch.ROLE_LEAF, leaf_index,
                         self.tors_per_pod + spine_choice))
            dst_pod = self.host_pod(dst)
            leaf_choice = _ecmp_hash(flow_id, src, dst,
                                     salt=2000 + spine_choice,
                                     n=self.leaves_per_pod)
            hops.append((Switch.ROLE_SPINE, spine_choice,
                         dst_pod * self.leaves_per_pod + leaf_choice))
            leaf_index = dst_pod * self.leaves_per_pod + leaf_choice
            hops.append((Switch.ROLE_LEAF, leaf_index,
                         dst_tor % self.tors_per_pod))
        hops.append((Switch.ROLE_TOR, dst_tor, tor_down_port()))
        return hops


class ClosTopology:
    """Builds and owns the fabric; hosts attach by id.

    The five Clos dimensions live on the shared :attr:`routing` table."""

    def __init__(self, sim: "Simulator", params: "SimParams",
                 stats: "NetStats", rng: "RngRegistry",
                 n_pods: int = 1, leaves_per_pod: int = 2,
                 tors_per_pod: int = 2, hosts_per_tor: int = 4,
                 n_spines: int = 2):
        if min(n_pods, leaves_per_pod, tors_per_pod, hosts_per_tor) < 1:
            raise ValueError("all Clos dimensions must be >= 1")
        if n_pods > 1 and n_spines < 1:
            raise ValueError("multi-pod fabrics need at least one spine")
        self.sim = sim
        self.params = params
        self.stats = stats
        self.rng = rng

        self.tors: List[Switch] = []       # index: pod * tors_per_pod + t
        self.leaves: List[Switch] = []     # index: pod * leaves_per_pod + l
        self.spines: List[Switch] = []
        #: flat host-slot array sized at build (index: host id); shared with
        #: the routing table — None until the host attaches.
        self._slots: List[Optional[_HostSlot]] = \
            [None] * (n_pods * tors_per_pod * hosts_per_tor)
        self.routing = RoutingTable(n_pods, leaves_per_pod, tors_per_pod,
                                    hosts_per_tor, n_spines, self._slots)
        self._build()

    # ------------------------------------------------------------ dimensions
    @property
    def n_hosts(self) -> int:
        return len(self._slots)

    # ------------------------------------------------------------------ build
    def _switch(self, name: str) -> Switch:
        return Switch(self.sim, self.params, self.stats,
                      self.rng.stream(f"switch:{name}"), name)

    def _link(self, a: Switch, a_port: int, b: Switch, b_port: int) -> None:
        """Wire a full-duplex link between two existing switch ports."""
        a.ports[a_port].connect(b, b_port)
        b.ports[b_port].connect(a, a_port)
        a.register_neighbor(a_port, b, b_port)
        b.register_neighbor(b_port, a, a_port)

    def _build(self) -> None:
        dims = self.routing
        for s in range(dims.n_spines):
            self.spines.append(self._switch(f"spine{s}"))
        for pod in range(dims.n_pods):
            for l in range(dims.leaves_per_pod):
                self.leaves.append(self._switch(f"leaf{pod}.{l}"))
            for t in range(dims.tors_per_pod):
                self.tors.append(self._switch(f"tor{pod}.{t}"))

        # ToR ports: [0, hosts_per_tor) down to hosts,
        #            [hosts_per_tor, +leaves_per_pod) up to pod leaves.
        for tor_index, tor in enumerate(self.tors):
            pod = tor_index // dims.tors_per_pod
            for _ in range(dims.hosts_per_tor):
                tor.add_port()       # connected when the host attaches
            for l in range(dims.leaves_per_pod):
                up = tor.add_port()
                leaf = self.leaves[pod * dims.leaves_per_pod + l]
                down = leaf.add_port()
                self._link(tor, up, leaf, down)
            tor.install_routing(self.routing, Switch.ROLE_TOR, tor_index)

        # Leaf ports: [0, tors_per_pod) down (wired above),
        #             [tors_per_pod, +n_spines) up to all spines.
        for leaf_index, leaf in enumerate(self.leaves):
            for s in range(dims.n_spines):
                up = leaf.add_port()
                spine = self.spines[s]
                down = spine.add_port()
                self._link(leaf, up, spine, down)
            leaf.install_routing(self.routing, Switch.ROLE_LEAF, leaf_index)

        # Spine ports: leaves in wiring order — pod-major, leaf-minor.
        for spine_index, spine in enumerate(self.spines):
            spine.install_routing(self.routing, Switch.ROLE_SPINE,
                                  spine_index)

    # ----------------------------------------------------------------- hosts
    def attach(self, host: int, device: Device) -> EgressPort:
        """Plug ``device`` in as host ``host``; returns its uplink port.

        The device will see :meth:`Device.receive` calls with ``in_port=0``
        and PFC gating via :meth:`Device.pause_port` on port 0.
        """
        if not 0 <= host < self.n_hosts:
            raise ValueError(f"host id {host} outside [0, {self.n_hosts})")
        existing = self._slots[host]
        if existing is not None and existing.device is not None:
            raise ValueError(f"host {host} already attached")
        tor = self.tors[self.routing.host_tor_index(host)]
        down_port = host % self.routing.hosts_per_tor

        uplink = EgressPort(self.sim, self.params, name=f"host{host}.up")
        # ToR's ingress from this host is numbered by the down-port index.
        uplink.connect(tor, down_port)
        tor.ports[down_port].connect(device, 0)
        tor.register_neighbor(down_port, device, 0)

        self._slots[host] = _HostSlot(
            tor=tor, tor_down_port=down_port, device=device, uplink=uplink)
        return uplink

    def attach_extra_port(self, host: int, device: Device, nic_port: int
                          ) -> EgressPort:
        """Wire an additional NIC port for ``host`` to its ToR.

        The device receives with ``in_port=nic_port`` and is PFC-gated via
        ``pause_port(nic_port, ...)``; the ToR spreads inbound flows over
        all of the host's links.
        """
        slot = self._slots[host] if 0 <= host < self.n_hosts else None
        if slot is None or slot.device is not device:
            raise ValueError(f"host {host} must attach its primary port first")
        tor = slot.tor
        down_port = tor.add_port()
        uplink = EgressPort(self.sim, self.params,
                            name=f"host{host}.up{nic_port}")
        uplink.connect(tor, down_port)
        tor.ports[down_port].connect(device, nic_port)
        tor.register_neighbor(down_port, device, nic_port)
        slot.extra_down_ports.append(down_port)
        return uplink

    def switch_for(self, role: int, index: int) -> Switch:
        """The switch at a routing-table ``(role, index)`` coordinate."""
        if role == Switch.ROLE_TOR:
            return self.tors[index]
        if role == Switch.ROLE_LEAF:
            return self.leaves[index]
        return self.spines[index]

