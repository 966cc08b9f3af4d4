"""Flow-aggregate background channels: path charging, residual capacity,
and analytic byte settlement."""

from types import SimpleNamespace

import pytest

from repro.net import Segment
from repro.net.aggregate import AggregateTraffic
from repro.switching.switch import Switch

from tests.net.test_fabric import make_fabric

GBPS = 1e9


def make_agg(**dims):
    sim, params, stats, topo, hosts = make_fabric(**dims)
    cluster = SimpleNamespace(sim=sim, topology=topo)
    return sim, params, topo, hosts, AggregateTraffic(cluster)


def test_flow_charges_every_path_port():
    sim, params, topo, hosts, agg = make_agg(
        n_pods=2, tors_per_pod=2, hosts_per_tor=2,
        leaves_per_pod=2, n_spines=2)
    flow = agg.add_flow(0, 5, rate_bps=2 * GBPS)
    assert agg.flush() == len(flow.path) == 5
    for role, index, port_index in flow.path:
        port = topo.switch_for(role, index).ports[port_index]
        assert port.background_bps == 2 * GBPS
        assert port.bandwidth_bps == port.base_bandwidth_bps - 2 * GBPS


def test_residual_floors_at_five_percent():
    sim, params, topo, hosts, agg = make_agg()
    agg.add_flow(0, 1, rate_bps=100 * params.link_bandwidth_bps)
    agg.flush()
    down_port = topo.tors[0].ports[1]
    assert down_port.bandwidth_bps == \
        pytest.approx(down_port.base_bandwidth_bps * 0.05)


def test_settle_bytes_is_rate_times_elapsed():
    sim, params, topo, hosts, agg = make_agg()
    agg.add_flow(0, 1, rate_bps=8 * GBPS)
    agg.flush()
    sim.run(until=1_000_000)                   # 1 ms
    total = agg.settle()
    assert total == pytest.approx(8 * GBPS * 1e-3 / 8)
    # Settling twice at the same instant must not double-count.
    assert agg.settle() == pytest.approx(total)


def test_rates_sum_on_shared_ports():
    sim, params, topo, hosts, agg = make_agg()
    agg.add_flow(0, 1, rate_bps=1 * GBPS)
    agg.add_flow(2, 1, rate_bps=3 * GBPS)      # same destination down-port
    agg.flush()
    assert topo.tors[0].ports[1].background_bps == 4 * GBPS


def test_unattached_endpoints_do_not_need_devices():
    # One fleet shard charges background between hosts it never attached.
    sim, params, topo, hosts, agg = make_agg(
        n_pods=2, tors_per_pod=1, hosts_per_tor=4,
        leaves_per_pod=2, n_spines=2)
    # make_fabric attaches everyone; emulate sparseness via raw topology ids
    flow = agg.add_flow(1, 6, rate_bps=GBPS)
    assert any(role == Switch.ROLE_SPINE for role, _, _ in flow.path)
    agg.flush()


def test_background_slows_foreground_serialization():
    sim1, params, topo1, hosts1, _ = make_agg()
    hosts1[0].send(Segment(src=0, dst=1, size=64 * 1024))
    sim1.run()
    clean_ns = sim1.now

    sim2, params2, topo2, hosts2, agg = make_agg()
    agg.add_flow(2, 1, rate_bps=0.9 * params2.link_bandwidth_bps)
    agg.flush()
    hosts2[0].send(Segment(src=0, dst=1, size=64 * 1024))
    sim2.run()
    assert sim2.now > clean_ns * 2     # residual-capacity serialization


def test_negative_rate_rejected():
    sim, params, topo, hosts, agg = make_agg()
    with pytest.raises(ValueError):
        agg.add_flow(0, 1, rate_bps=-1.0)
