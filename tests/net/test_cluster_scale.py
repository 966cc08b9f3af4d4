"""Cluster-scale topology defects: multi-pod sizing, slot defaults,
priority-class PFC, and the flyweight routing path enumeration."""

import pytest

from repro.cluster import build_cluster, fabric_footprint
from repro.net import NetStats, Segment
from repro.sim import RngRegistry, SimParams, Simulator
from repro.switching.switch import LOCAL_PORT, Switch
from repro.tools.xr_perf import XrPerf
from repro.topology import ClosTopology
from repro.topology.clos import _HostSlot

from tests.net.test_fabric import make_fabric


# ------------------------------------------------- multi-pod sizing defect
def test_multipod_defaults_distribute_hosts_across_pods():
    # Regression: defaulted dims used to be computed as if single-pod,
    # packing all hosts into pod 0 and leaving the spines idle.
    cluster = build_cluster(n_hosts=32, n_pods=2, n_spines=2)
    topo = cluster.topology
    pods = {topo.routing.host_pod(host.host_id) for host in cluster.hosts}
    assert pods == {0, 1}
    assert topo.n_hosts == 32          # capacity fits exactly, no slack pod


def test_multipod_cross_pod_traffic_reaches_spines():
    cluster = build_cluster(n_hosts=32, n_pods=2, n_spines=2)
    topo = cluster.topology
    src, dst = 0, 31                   # opposite pods under fixed sizing
    assert topo.routing.host_pod(src) != topo.routing.host_pod(dst)
    perf = XrPerf(cluster)
    perf.run_incast([src], dst, size=16 * 1024, messages_per_source=2)
    spine_bytes = sum(port.tx_bytes for spine in topo.spines
                      for port in spine.ports)
    assert spine_bytes > 0


def test_single_pod_defaults_unchanged():
    # Digest safety: the n_pods=1 sizing must match the old arithmetic.
    dims = build_cluster(n_hosts=5).topology.routing
    assert (dims.n_pods, dims.tors_per_pod,
            dims.hosts_per_tor, dims.n_spines) == (1, 1, 5, 1)
    dims = build_cluster(n_hosts=20).topology.routing
    assert (dims.n_pods, dims.tors_per_pod, dims.hosts_per_tor) == (1, 2, 10)


def test_impossible_dimensions_raise():
    with pytest.raises(ValueError):
        build_cluster(n_hosts=10, tors_per_pod=1, hosts_per_tor=4)
    with pytest.raises(ValueError):
        build_cluster(n_hosts=64, n_pods=2, tors_per_pod=1,
                      hosts_per_tor=16)


# ------------------------------------------------------------ sparse attach
def test_sparse_attach_and_host_lookup():
    cluster = build_cluster(n_hosts=64, n_pods=2, n_spines=2,
                            attach_hosts=[0, 3, 40])
    assert [host.host_id for host in cluster.hosts] == [0, 3, 40]
    assert cluster.host(40).host_id == 40
    with pytest.raises(KeyError):
        cluster.host(5)                # in range, but never attached
    with pytest.raises(ValueError):
        build_cluster(n_hosts=16, attach_hosts=[20])


def test_fabric_footprint_flat_per_node():
    small = fabric_footprint(build_cluster(n_hosts=128, n_pods=1,
                                           tors_per_pod=8,
                                           hosts_per_tor=16,
                                           attach_hosts=[0]))
    big = fabric_footprint(build_cluster(n_hosts=512, n_pods=4,
                                         tors_per_pod=8, hosts_per_tor=16,
                                         n_spines=2, attach_hosts=[0]))
    # The flyweight guarantee: per-node fabric state does not grow with
    # the cluster (allow slack for fixed costs amortizing differently).
    assert big["fabric_bytes_per_node"] < small["fabric_bytes_per_node"] * 1.5
    assert big["attached_hosts"] == 1.0


# --------------------------------------------------------- _HostSlot defect
def test_host_slot_default_extra_ports_not_shared():
    # Regression: ``extra_down_ports: List[int] = None`` (a) crashed any
    # append on a default-constructed slot and (b) the naive fix of a
    # mutable [] default would alias one list across slots.
    a = _HostSlot(tor=None, tor_down_port=0)
    b = _HostSlot(tor=None, tor_down_port=1)
    assert a.extra_down_ports == []
    a.extra_down_ports.append(5)
    assert b.extra_down_ports == []


def test_attach_extra_port_through_default_slot():
    sim, params, stats, topo, hosts = make_fabric()
    uplink = topo.attach_extra_port(0, hosts[0], nic_port=1)
    assert uplink is not None
    assert len(topo._slots[0].extra_down_ports) == 1
    assert topo._slots[1].extra_down_ports == []


# ---------------------------------------------------------------- PFC gate
def test_pause_port_gates_the_fed_link():
    # One lossless class: a pause frame gates the whole downlink, and the
    # resume drains what queued behind it.
    sim, params, stats, topo, hosts = make_fabric()
    tor = topo.tors[0]
    tor.pause_port(1, True)
    hosts[0].send(Segment(src=0, dst=1, size=1000))
    sim.run()
    assert len(hosts[1].received) == 0
    tor.pause_port(1, False)
    sim.run()
    assert len(hosts[1].received) == 1


def test_single_fifo_head_of_line_gate():
    # The port is one FIFO: a pause holds every queued segment, and the
    # resume releases them in arrival order.
    sim, params, stats, topo, hosts = make_fabric()
    uplink = hosts[0].uplink
    uplink.set_paused(True)
    for flow in (1, 2, 3):
        hosts[0].send(Segment(src=0, dst=1, size=100, flow_id=flow))
    sim.run()
    assert len(hosts[1].received) == 0
    assert uplink.paused
    uplink.set_paused(False)
    sim.run()
    assert [seg.flow_id for seg in hosts[1].received] == [1, 2, 3]
    assert not uplink.paused


# ------------------------------------------------- flat PFC ingress arrays
def test_ingress_arrays_sized_with_trailing_local_slot():
    sim, params, stats, topo, hosts = make_fabric()
    tor = topo.tors[0]
    assert len(tor._ingress_bytes) == len(tor.ports) + 1
    assert len(tor._paused_upstream) == len(tor.ports) + 1
    segment = Segment(src=0, dst=1, size=500)
    tor.receive(segment, LOCAL_PORT)
    assert tor._ingress_bytes[-1] == 500   # harness slot, not port 0's
    assert tor._ingress_bytes[0] == 0
    sim.run()
    assert tor._ingress_bytes[-1] == 0     # settled on dequeue


# ------------------------------------------------------ flyweight routing
def test_switches_share_one_routing_table():
    sim, params, stats, topo, hosts = make_fabric(
        n_pods=2, tors_per_pod=2, hosts_per_tor=2,
        leaves_per_pod=2, n_spines=2)
    tables = {id(sw.routing)
              for sw in topo.tors + topo.leaves + topo.spines}
    assert tables == {id(topo.routing)}


def test_flow_path_matches_packet_route():
    sim, params, stats, topo, hosts = make_fabric(
        n_pods=2, tors_per_pod=2, hosts_per_tor=2,
        leaves_per_pod=2, n_spines=2)
    hosts[0].send(Segment(src=0, dst=5, size=300, flow_id=9))
    sim.run()
    hops = topo.routing.flow_path(9, 0, 5)
    assert len(hops) == 5                  # tor, leaf, spine, leaf, tor
    for role, index, port in hops:
        assert topo.switch_for(role, index).ports[port].tx_segments >= 1


def test_flow_path_handles_unattached_endpoints():
    sim = Simulator()
    topo = ClosTopology(sim, SimParams(), NetStats(), RngRegistry(0),
                        n_pods=2, tors_per_pod=2, hosts_per_tor=4,
                        leaves_per_pod=2, n_spines=2)
    hops = topo.routing.flow_path(1, 0, 9)     # nobody attached at all
    assert hops[0][0] == 0 and hops[-1][0] == 0      # ToR at both ends
    assert hops[-1][2] == 9 % topo.routing.hosts_per_tor  # canonical port
    assert topo.routing.flow_path(1, 3, 3) == []


def test_flow_path_mirrors_route_over_a_dual_port_hosts_links():
    """ECMP over a dual-port destination's extra down ports: for many
    flows, ``flow_path`` names exactly the hops a segment's route takes,
    and the flows spread over both of the destination's links."""
    cluster = build_cluster(n_hosts=16, n_pods=2, tors_per_pod=2,
                            hosts_per_tor=4, leaves_per_pod=2, n_spines=2,
                            nic_ports=2)
    topo, routing = cluster.topology, cluster.topology.routing
    roles = {id(switch): role for role, switches in (
        (Switch.ROLE_TOR, topo.tors), (Switch.ROLE_LEAF, topo.leaves),
        (Switch.ROLE_SPINE, topo.spines)) for switch in switches}
    dst = 5
    same_tor = dst ^ 1
    same_pod = (dst + routing.hosts_per_tor) % (
        routing.hosts_per_tor * routing.tors_per_pod)
    other_pod = cluster.hosts[-1].host_id
    assert routing.host_tor_index(same_tor) == routing.host_tor_index(dst)
    assert routing.host_tor_index(same_pod) != routing.host_tor_index(dst)
    assert routing.host_pod(same_pod) == routing.host_pod(dst)
    assert routing.host_pod(other_pod) != routing.host_pod(dst)
    down_ports = set()
    for src in (same_tor, same_pod, other_pod):
        for flow_id in range(64):
            segment = Segment(src=src, dst=dst, size=300, flow_id=flow_id)
            device, route = topo.tors[routing.host_tor_index(src)], []
            while id(device) in roles:
                port = device._route(device.routing_index, segment)
                route.append((roles[id(device)], device.routing_index, port))
                device = device.ports[port].peer
            assert device is cluster.host(dst).nic
            assert routing.flow_path(flow_id, src, dst) == route
            down_ports.add(route[-1][2])
    assert len(down_ports) == 2
