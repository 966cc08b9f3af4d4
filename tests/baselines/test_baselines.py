"""Baseline middlewares and the TCP stack."""

from statistics import mean

import pytest

from repro.baselines import (IbvPingPong, LibfabricEndpoint, UcxEndpoint,
                             XioEndpoint)
from repro.baselines.common import run_pingpong
from repro.baselines.tcpstack import TcpAgent, TcpError
from repro.cluster import build_cluster
from repro.sim import MICROS, MILLIS, SECONDS
from tests.conftest import run_process


# ------------------------------------------------------------- middlewares

def test_ibv_pingpong_latency_calibration():
    cluster = build_cluster(2)
    latencies = run_pingpong(cluster, IbvPingPong, size=64, iterations=20)
    one_way_us = mean(latencies) / 1000
    # Calibration target: ~5 µs one-way at 64 B (paper's Fig. 7 range).
    assert 4.0 < one_way_us < 6.5


def test_middleware_ordering_matches_paper():
    results = {}
    for cls in (IbvPingPong, UcxEndpoint, LibfabricEndpoint, XioEndpoint):
        cluster = build_cluster(2)
        latencies = run_pingpong(cluster, cls, size=64, iterations=16)
        results[cls.NAME] = mean(latencies)
    assert results["ibv-pingpong"] < results["ucx-am-rc"]
    assert results["ucx-am-rc"] < results["libfabric"]
    assert results["libfabric"] < results["xio"]


def test_xio_copy_cost_scales_with_size():
    small = mean(run_pingpong(build_cluster(2), XioEndpoint, 64, 16))
    large = mean(run_pingpong(build_cluster(2), XioEndpoint, 16384, 16))
    ucx_small = mean(run_pingpong(build_cluster(2), UcxEndpoint, 64, 16))
    ucx_large = mean(run_pingpong(build_cluster(2), UcxEndpoint, 16384, 16))
    # xio's per-byte copies make its size-scaling worse than ucx's.
    assert (large - small) > (ucx_large - ucx_small)


# ---------------------------------------------------------------- TCP stack

@pytest.fixture
def tcp_pair():
    cluster = build_cluster(2)
    agent_a = TcpAgent(cluster.sim, cluster.params, cluster.host(0).nic)
    agent_b = TcpAgent(cluster.sim, cluster.params, cluster.host(1).nic)
    return cluster, agent_a, agent_b


def test_tcp_connect_is_fast(tcp_pair):
    cluster, agent_a, agent_b = tcp_pair
    agent_b.listen(5000)
    t0 = cluster.sim.now

    def connector():
        socket = yield from agent_a.connect(1, 5000)
        return socket

    socket = run_process(cluster, connector(), limit=SECONDS)
    elapsed_us = (cluster.sim.now - t0) / 1000
    # Paper Sec. III: ~100 µs for TCP vs ~4 ms for rdma_cm.
    assert 90 < elapsed_us < 300
    assert socket.remote_host == 1


def test_tcp_send_recv_roundtrip(tcp_pair):
    cluster, agent_a, agent_b = tcp_pair
    listener = agent_b.listen(5000)

    def scenario():
        socket = yield from agent_a.connect(1, 5000)
        peer = yield listener.accepted.get()
        yield from socket.send(100_000, payload={"k": 1})
        nbytes, payload = yield peer.recv()
        return nbytes, payload

    nbytes, payload = run_process(cluster, scenario(), limit=SECONDS)
    assert nbytes == 100_000
    assert payload == {"k": 1}


def test_tcp_connect_refused(tcp_pair):
    cluster, agent_a, agent_b = tcp_pair

    def connector():
        yield from agent_a.connect(1, 5999)

    with pytest.raises(TcpError, match="refused"):
        run_process(cluster, connector(), limit=SECONDS)


def test_tcp_connect_to_dead_host_times_out(tcp_pair):
    cluster, agent_a, agent_b = tcp_pair
    cluster.host(1).nic.crash()

    def connector():
        yield from agent_a.connect(1, 5000, timeout_ns=20 * MILLIS)

    with pytest.raises(TcpError, match="timed out"):
        run_process(cluster, connector(), limit=SECONDS)


def test_tcp_close_propagates(tcp_pair):
    cluster, agent_a, agent_b = tcp_pair
    listener = agent_b.listen(5000)

    def scenario():
        socket = yield from agent_a.connect(1, 5000)
        peer = yield listener.accepted.get()
        socket.close()
        yield cluster.sim.timeout(1 * MILLIS)
        return socket, peer

    socket, peer = run_process(cluster, scenario(), limit=SECONDS)
    assert socket.closed
    assert peer.closed


def test_tcp_end_of_stream_reaches_both_readers_behind_the_data(tcp_pair):
    """``recv()`` yields ``None`` once the stream has ended: at once for
    the side that closed, and for its peer only after everything sent —
    here 1 MB still paying receive-side kernel cost when the FIN lands."""
    cluster, agent_a, agent_b = tcp_pair
    listener = agent_b.listen(5000)

    def scenario():
        socket = yield from agent_a.connect(1, 5000)
        peer = yield listener.accepted.get()
        yield from socket.send(1 << 20, payload="bulk")
        socket.close()
        own = yield socket.recv()
        first = yield peer.recv()
        second = yield peer.recv()
        return own, first, second

    assert run_process(cluster, scenario(), limit=SECONDS) == \
        (None, (1 << 20, "bulk"), None)


def test_tcp_send_on_closed_socket_raises(tcp_pair):
    cluster, agent_a, agent_b = tcp_pair
    listener = agent_b.listen(5000)

    def scenario():
        socket = yield from agent_a.connect(1, 5000)
        socket.close()
        yield from socket.send(10)

    with pytest.raises(TcpError):
        run_process(cluster, scenario(), limit=SECONDS)


def test_tcp_slower_than_rdma_for_bulk(tcp_pair):
    """Sanity: the fallback path really is the slow path."""
    cluster, agent_a, agent_b = tcp_pair
    listener = agent_b.listen(5000)

    def scenario():
        socket = yield from agent_a.connect(1, 5000)
        peer = yield listener.accepted.get()
        t0 = cluster.sim.now
        yield from socket.send(1 << 20)
        yield peer.recv()
        return cluster.sim.now - t0

    elapsed = run_process(cluster, scenario(), limit=SECONDS)
    # 1 MB at ~0.35 ns/B of copies each side + wire: ≥ 0.9 ms.
    assert elapsed > 900 * MICROS
