"""X-RDMA across a multi-pod Clos (traffic through leaf and spine tiers)."""

import pytest

from repro.cluster import build_cluster
from repro.sim import SECONDS
from tests.conftest import run_process


@pytest.fixture
def fabric():
    # 2 pods × 2 ToRs × 2 hosts: hosts 0-3 in pod 0, hosts 4-7 in pod 1.
    return build_cluster(8, n_pods=2, tors_per_pod=2, hosts_per_tor=2,
                         leaves_per_pod=2, n_spines=2)


def test_cross_pod_rpc(fabric):
    client = fabric.xrdma_context(0)
    server = fabric.xrdma_context(7)           # other pod: 5 switch hops
    accepted = server.listen(9100)
    assert len(fabric.topology.routing.flow_path(0, 0, 7)) == 5

    def scenario():
        channel = yield from client.connect(7, 9100)
        server_channel = yield accepted.get()
        server_channel.on_request = \
            lambda msg: server.send_response(msg, 64)
        t0 = fabric.sim.now
        request = client.send_request(channel, 64)
        yield request.response
        return (fabric.sim.now - t0) / 2

    one_way = run_process(fabric, scenario(), limit=10 * SECONDS)
    # Four extra switch hops versus same-ToR: clearly slower but sane.
    assert 5_000 < one_way < 20_000


def test_cross_pod_large_transfer(fabric):
    client = fabric.xrdma_context(1)
    server = fabric.xrdma_context(6)
    server.listen(9100)

    def scenario():
        channel = yield from client.connect(6, 9100)
        msg = client.send_msg(channel, 4 << 20)
        incoming = yield server.incoming.get()
        yield msg.acked
        return incoming

    incoming = run_process(fabric, scenario(), limit=10 * SECONDS)
    assert incoming.payload_size == 4 << 20
    assert fabric.stats.rnr_naks == 0


def test_pod_local_faster_than_cross_pod(fabric):
    def rpc_latency(dst):
        client = fabric.xrdma_context(0)
        server = fabric.xrdma_context(dst)
        accepted = server.listen(9100)

        def scenario():
            channel = yield from client.connect(dst, 9100)
            server_channel = yield accepted.get()
            server_channel.on_request = \
                lambda msg: server.send_response(msg, 64)
            t0 = fabric.sim.now
            request = client.send_request(channel, 64)
            yield request.response
            return fabric.sim.now - t0

        return run_process(fabric, scenario(), limit=10 * SECONDS)

    same_tor = rpc_latency(1)       # 1 hop
    cross_pod = rpc_latency(5)      # 5 hops
    assert same_tor < cross_pod


def test_many_flows_across_spines(fabric):
    """All pod-0 hosts blast all pod-1 hosts; everything arrives intact."""
    contexts = {h: fabric.xrdma_context(h) for h in range(8)}
    for h in range(4, 8):
        contexts[h].listen(9100)
    counts = {h: 0 for h in range(4, 8)}

    def sink(h):
        while True:
            yield contexts[h].incoming.get()
            counts[h] += 1

    for h in range(4, 8):
        fabric.sim.spawn(sink(h))

    def source(src):
        for dst in range(4, 8):
            channel = yield from contexts[src].connect(dst, 9100)
            for _ in range(5):
                contexts[src].send_msg(channel, 32 * 1024)

    procs = [fabric.sim.spawn(source(src)) for src in range(4)]
    fabric.sim.run_until_event(fabric.sim.all_of(procs),
                               limit=30 * SECONDS)
    fabric.sim.run(until=fabric.sim.now + 1 * SECONDS)
    assert all(count == 20 for count in counts.values())
    # Spine links actually carried traffic.
    spine_tx = sum(port.tx_segments
                   for spine in fabric.topology.spines
                   for port in spine.ports)
    assert spine_tx > 0
