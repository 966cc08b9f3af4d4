"""Integration tests for links, switches, topology, ECN and PFC."""

import pytest

from repro.net import NetStats, Segment, SegmentKind
from repro.net.hosts import SimpleHost
from repro.sim import RngRegistry, SimParams, Simulator
from repro.sim.params import congested_params
from repro.topology import ClosTopology


def make_fabric(params=None, seed=0, **dims):
    sim = Simulator()
    params = params or SimParams()
    stats = NetStats()
    rng = RngRegistry(seed)
    dims.setdefault("n_pods", 1)
    dims.setdefault("leaves_per_pod", 1)
    dims.setdefault("tors_per_pod", 1)
    dims.setdefault("hosts_per_tor", 4)
    dims.setdefault("n_spines", 1)
    topo = ClosTopology(sim, params, stats, rng, **dims)
    hosts = []
    for h in range(topo.n_hosts):
        host = SimpleHost(h)
        host.plug_into(topo)
        hosts.append(host)
    return sim, params, stats, topo, hosts


def test_segment_delivery_same_tor():
    sim, params, stats, topo, hosts = make_fabric()
    hosts[0].send(Segment(src=0, dst=1, size=1000))
    sim.run()
    assert len(hosts[1].received) == 1
    assert hosts[1].received[0].size == 1000
    assert hosts[1].received[0].hops == 1


def test_delivery_latency_matches_model():
    sim, params, stats, topo, hosts = make_fabric()
    hosts[0].send(Segment(src=0, dst=1, size=1000))
    sim.run()
    # host ser + prop + (tor ser + prop): two serializations, two propagations
    ser = int(round((1000 + params.header_bytes) * 8
                    / params.link_bandwidth_bps * 1e9))
    expected = 2 * (ser + params.link_propagation_ns)
    assert sim.now == pytest.approx(expected, rel=0.01)


def test_cross_tor_goes_through_leaf():
    sim, params, stats, topo, hosts = make_fabric(
        tors_per_pod=2, hosts_per_tor=2)
    hosts[0].send(Segment(src=0, dst=3, size=500))
    sim.run()
    assert len(hosts[3].received) == 1
    assert hosts[3].received[0].hops == 3  # tor, leaf, tor


def test_cross_pod_goes_through_spine():
    sim, params, stats, topo, hosts = make_fabric(
        n_pods=2, tors_per_pod=1, hosts_per_tor=2,
        leaves_per_pod=2, n_spines=2)
    hosts[0].send(Segment(src=0, dst=2, size=500))
    sim.run()
    assert len(hosts[2].received) == 1
    assert hosts[2].received[0].hops == 5  # tor, leaf, spine, leaf, tor


def test_path_hops_helper():
    """The switch count of a path is the length of ``flow_path``."""
    _, _, _, topo, _ = make_fabric(
        n_pods=2, tors_per_pod=2, hosts_per_tor=2,
        leaves_per_pod=2, n_spines=2)

    def hops(src, dst):
        return len(topo.routing.flow_path(0, src, dst))

    assert hops(0, 0) == 0
    assert hops(0, 1) == 1
    assert hops(0, 2) == 3
    assert hops(0, 4) == 5


def test_many_flows_all_delivered():
    sim, params, stats, topo, hosts = make_fabric(
        tors_per_pod=2, hosts_per_tor=4, leaves_per_pod=2)
    n = 0
    for src in range(8):
        for dst in range(8):
            if src == dst:
                continue
            hosts[src].send(Segment(src=src, dst=dst, size=200,
                                    flow_id=src * 8 + dst))
            n += 1
    sim.run()
    assert sum(len(h.received) for h in hosts) == n


def test_ecmp_spreads_flows_across_uplinks():
    sim, params, stats, topo, hosts = make_fabric(
        tors_per_pod=2, hosts_per_tor=2, leaves_per_pod=4)
    # Many distinct flows from host 0 to host 2 (cross-ToR).
    for flow in range(64):
        hosts[0].send(Segment(src=0, dst=2, size=100, flow_id=flow))
    sim.run()
    tor = topo.tors[0]
    dims = topo.routing
    used_uplinks = {
        p for p in range(dims.hosts_per_tor,
                         dims.hosts_per_tor + dims.leaves_per_pod)
        if tor.ports[p].tx_segments > 0
    }
    assert len(used_uplinks) >= 2  # hashing spreads over multiple uplinks


def test_same_flow_stays_on_one_path():
    sim, params, stats, topo, hosts = make_fabric(
        tors_per_pod=2, hosts_per_tor=2, leaves_per_pod=4)
    for _ in range(32):
        hosts[0].send(Segment(src=0, dst=2, size=100, flow_id=7))
    sim.run()
    tor = topo.tors[0]
    used = [p for p in range(2, 6) if tor.ports[p].tx_segments > 0]
    assert len(used) == 1


def test_unattached_destination_raises():
    sim = Simulator()
    params, stats, rng = SimParams(), NetStats(), RngRegistry(0)
    topo = ClosTopology(sim, params, stats, rng, n_pods=1, leaves_per_pod=1,
                        tors_per_pod=1, hosts_per_tor=2, n_spines=1)
    host = SimpleHost(0)
    host.plug_into(topo)
    host.send(Segment(src=0, dst=1, size=10))
    with pytest.raises(Exception):
        sim.run()


def test_double_attach_rejected():
    sim, params, stats, topo, hosts = make_fabric()
    with pytest.raises(ValueError):
        SimpleHost(0).plug_into(topo)


def test_pfc_prevents_drops_under_incast():
    params = congested_params()
    sim, params, stats, topo, hosts = make_fabric(params=params)
    for src in (0, 1, 2):
        for i in range(200):
            hosts[src].send(Segment(src=src, dst=3, size=4096, flow_id=src))
    sim.run()
    assert stats.drops == 0
    assert stats.pause_frames > 0
    assert stats.resume_frames > 0
    assert len(hosts[3].received) == 600


def test_ecn_marks_appear_under_congestion():
    params = congested_params()
    sim, params, stats, topo, hosts = make_fabric(params=params)
    for src in (0, 1, 2):
        for i in range(100):
            hosts[src].send(Segment(src=src, dst=3, size=4096, flow_id=src))
    sim.run()
    assert stats.ecn_marks > 0
    marked = [s for s in hosts[3].received if s.ecn_marked]
    assert marked


def test_no_ecn_marks_when_uncongested():
    sim, params, stats, topo, hosts = make_fabric()
    hosts[0].send(Segment(src=0, dst=1, size=1000))
    sim.run()
    assert stats.ecn_marks == 0


def test_pause_frames_gate_host_uplink():
    params = congested_params()
    sim, params, stats, topo, hosts = make_fabric(params=params)
    for i in range(300):
        hosts[0].send(Segment(src=0, dst=3, size=4096))
    for i in range(300):
        hosts[1].send(Segment(src=1, dst=3, size=4096))
    sim.run()
    # With PFC on, the host uplinks must have been paused at least once.
    assert stats.pause_frames > 0
    assert not hosts[0].uplink.paused  # resumed by end of run
    assert len(hosts[3].received) == 600


def test_clos_dimension_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        ClosTopology(sim, SimParams(), NetStats(), RngRegistry(0),
                     n_pods=0)


def test_negative_segment_size_rejected():
    with pytest.raises(ValueError):
        Segment(src=0, dst=1, size=-1)
