"""Cluster assembly: fabric + RNIC hosts, ready for middleware and apps.

This is the top-level entry point examples and benchmarks build on::

    from repro.cluster import build_cluster

    cluster = build_cluster(n_hosts=4)
    host = cluster.host(0)            # .nic / .verbs / .cm / .memory
    ctx = cluster.xrdma_context(0)    # an X-RDMA context on host 0

For cluster-scale emulation the fabric and the attached host set are
decoupled: ``build_cluster(n_hosts=1024, attach_hosts=range(16))`` sizes
the Clos for 1024 host slots but instantiates RNIC stacks for only the
named ids — the rest of the load is carried by flow-aggregate channels
(:mod:`repro.net.aggregate`), keeping per-worker memory proportional to
the simulated rack, not the cluster.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.baselines.tcpstack import TcpAgent
from repro.memory import HostMemory
from repro.net import NetStats
from repro.rnic import Rnic
from repro.sim import RngRegistry, SimParams, Simulator
from repro.topology import ClosTopology
from repro.verbs import CmAgent, VerbsContext


@dataclass
class Host:
    """One simulated machine: NIC + verbs + CM + host memory."""

    host_id: int
    nic: Rnic
    verbs: VerbsContext
    cm: CmAgent
    memory: HostMemory
    #: the host's one kernel-TCP stack, built on first ``Cluster.tcp_agent``
    tcp: Optional[TcpAgent] = None


@dataclass
class Cluster:
    """A running fabric with attached hosts.

    ``hosts`` lists attached hosts in attach order; under sparse
    attachment (``attach_hosts``) host ids are not list positions, so
    lookups go through :meth:`host`.
    """

    sim: Simulator
    params: SimParams
    stats: NetStats
    rng: RngRegistry
    topology: ClosTopology
    hosts: List[Host] = field(default_factory=list)
    _by_id: Dict[int, Host] = field(default_factory=dict)

    def add_host(self, host: Host) -> None:
        """Record an attached host (keeps the id index in step)."""
        self.hosts.append(host)
        self._by_id[host.host_id] = host

    def host(self, host_id: int) -> Host:
        """The Host record (nic/verbs/cm/memory) for ``host_id``."""
        try:
            return self._by_id[host_id]
        except KeyError:
            raise KeyError(
                f"host {host_id} has no attached RNIC stack (cluster "
                f"attached {len(self.hosts)} of "
                f"{self.topology.n_hosts} host slots)") from None

    def xrdma_context(self, host_id: int, config=None, name: str = ""):
        """Convenience: an X-RDMA context bound to ``host_id``."""
        from repro.xrdma import XrdmaContext
        host = self.host(host_id)
        return XrdmaContext(self.sim, host.verbs, host.cm, config=config,
                            name=name or f"xr-h{host_id}")

    def tcp_agent(self, host_id: int) -> TcpAgent:
        """The TCP stack of ``host_id`` (baselines, Mock) — one per host."""
        host = self.host(host_id)
        if host.tcp is None:
            host.tcp = TcpAgent(self.sim, self.params, host.nic)
        return host.tcp


def build_cluster(n_hosts: int = 4, params: Optional[SimParams] = None,
                  seed: int = 0, nic_ports: int = 1,
                  attach_hosts: Optional[Iterable[int]] = None,
                  **dims) -> Cluster:
    """Create a Clos fabric with ``n_hosts`` RNIC-equipped hosts attached.

    Fabric dimensions default to fitting ``n_hosts`` with ≤16 hosts per
    ToR, sized **per pod**: with ``n_pods > 1`` the host id space spans
    every pod, so cross-pod traffic actually exercises the spine tier.
    (Dimensions used to default as if single-pod, which packed all hosts
    into pod 0 and left the spines idle.)  Pass explicit Clos dimensions
    via ``dims`` to override; impossible combinations — total slot
    capacity below ``n_hosts`` — raise ``ValueError``.

    ``attach_hosts`` selects which host ids get full RNIC stacks; the
    default attaches all of ``range(n_hosts)``.  Unattached slots still
    route (flow-aggregate background channels address them by id).
    """
    sim = Simulator()
    params = params or SimParams()
    stats = NetStats()
    rng = RngRegistry(seed)
    dims.setdefault("n_pods", 1)
    dims.setdefault("leaves_per_pod", 2)
    n_pods = dims["n_pods"]
    if n_pods < 1:
        raise ValueError(f"n_pods must be >= 1, got {n_pods}")
    hosts_per_pod = -(-n_hosts // n_pods)
    dims.setdefault("tors_per_pod", max(1, (hosts_per_pod + 15) // 16))
    dims.setdefault("hosts_per_tor",
                    -(-hosts_per_pod // dims["tors_per_pod"]))
    dims.setdefault("n_spines", 1)
    capacity = n_pods * dims["tors_per_pod"] * dims["hosts_per_tor"]
    if capacity < n_hosts:
        raise ValueError(
            f"Clos dimensions {dims} hold {capacity} host slots, fewer "
            f"than n_hosts={n_hosts}")
    topology = ClosTopology(sim, params, stats, rng, **dims)
    cluster = Cluster(sim=sim, params=params, stats=stats, rng=rng,
                      topology=topology)
    if attach_hosts is None:
        attach_ids: List[int] = list(range(n_hosts))
    else:
        attach_ids = sorted(set(attach_hosts))
        bad = [h for h in attach_ids if not 0 <= h < n_hosts]
        if bad:
            raise ValueError(
                f"attach_hosts ids {bad} outside [0, {n_hosts})")
    for host_id in attach_ids:
        memory = HostMemory()
        nic = Rnic(sim, params, stats, host_id)
        nic.plug_into(topology, ports=nic_ports)
        verbs = VerbsContext(sim, params, nic, memory)
        cm = CmAgent(sim, params, verbs, nic)
        cluster.add_host(Host(host_id=host_id, nic=nic, verbs=verbs,
                              cm=cm, memory=memory))
    return cluster


# ---------------------------------------------------------------- geometry
#: rack width the cluster-scale scenarios shard by (one ToR per rack)
RACK_HOSTS = 16


def cluster_dims(n_hosts: int) -> Dict[str, int]:
    """Canonical Clos dimensions for an emulated cluster of ``n_hosts``.

    16 hosts per ToR (one rack), up to 8 racks per pod, two leaves per
    pod and two spines: 1024 hosts become an 8-pod fabric whose
    cross-pod paths all transit the spine tier.  Pure arithmetic — every
    fleet shard of the same cluster derives the identical fabric.
    """
    pod_hosts = 8 * RACK_HOSTS
    n_pods = max(1, -(-n_hosts // pod_hosts))
    tors_per_pod = -(-n_hosts // (n_pods * RACK_HOSTS))
    return {"n_pods": n_pods, "tors_per_pod": tors_per_pod,
            "hosts_per_tor": RACK_HOSTS, "leaves_per_pod": 2,
            "n_spines": 2}


def rack_shard(n_hosts: int, rack: int) -> List[int]:
    """The host ids of one rack shard (one ToR's worth)."""
    n_racks = n_hosts // RACK_HOSTS
    if n_racks < 2:
        raise ValueError(
            f"cluster-scale scenarios need >= {2 * RACK_HOSTS} hosts, "
            f"got {n_hosts}")
    if not 0 <= rack < n_racks:
        raise ValueError(f"rack {rack} outside [0, {n_racks})")
    base = rack * RACK_HOSTS
    return list(range(base, base + RACK_HOSTS))


def remote_peer(n_hosts: int, dims: Dict[str, int], rack_base: int) -> int:
    """A host id one pod away from the rack (falls back to the next rack
    on single-pod fabrics), so packet-level traffic transits the spines."""
    pod_hosts = dims["tors_per_pod"] * dims["hosts_per_tor"]
    peer = (rack_base + pod_hosts) % n_hosts
    if peer // RACK_HOSTS == rack_base // RACK_HOSTS:
        peer = (rack_base + RACK_HOSTS) % n_hosts
    return peer


def spine_tx_bytes(cluster: Cluster) -> int:
    """Bytes the spine tier has transmitted: the cross-pod traffic proof."""
    return sum(port.tx_bytes
               for spine in cluster.topology.spines
               for port in spine.ports)


# --------------------------------------------------------------- footprint
def _port_footprint(port) -> int:
    total = sys.getsizeof(port)
    total += sys.getsizeof(port.queue)
    total += sys.getsizeof(port._ser_cache)
    return total


def _switch_footprint(switch) -> int:
    total = sys.getsizeof(switch) + sys.getsizeof(switch.__dict__)
    total += sys.getsizeof(switch.ports)
    total += sys.getsizeof(switch.neighbors)
    total += sys.getsizeof(switch._ingress_bytes)
    total += sys.getsizeof(switch._paused_upstream)
    for port in switch.ports:
        total += _port_footprint(port)
    return total


def fabric_footprint(cluster: Cluster) -> Dict[str, float]:
    """Deterministic byte estimate of the fabric's per-node model state.

    Sums ``sys.getsizeof`` over every switch (ports, queues, the flat PFC
    ingress arrays) plus the shared routing table and host-slot array, and
    divides by *emulated* host slots.  The point of the flyweight routing
    refactor is that this quotient stays flat as the cluster grows; the
    cluster-scale scenarios publish it as ``fabric_bytes_per_node``.
    ``sys.getsizeof`` is a fixed function of the object layout, so the
    numbers are identical across fleet workers (jobs-invariant).
    """
    topo = cluster.topology
    switches = topo.tors + topo.leaves + topo.spines
    fabric_bytes = sys.getsizeof(topo._slots)
    fabric_bytes += sys.getsizeof(topo.routing)
    for switch in switches:
        fabric_bytes += _switch_footprint(switch)
    n_nodes = topo.n_hosts
    return {
        "fabric_bytes": float(fabric_bytes),
        "fabric_switches": float(len(switches)),
        "emulated_hosts": float(n_nodes),
        "attached_hosts": float(len(cluster.hosts)),
        "fabric_bytes_per_node": round(fabric_bytes / n_nodes, 2),
    }
