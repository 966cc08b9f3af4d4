"""Application models: Pangu replication, ESSD I/O, X-DB transactions."""

import pytest

from repro.apps import EssdFrontend, PanguDeployment, XdbFrontend
from repro.cluster import build_cluster
from repro.sim import MILLIS, SECONDS
from repro.workloads.traces import burst_profile
from tests.conftest import run_process


@pytest.fixture
def pangu():
    cluster = build_cluster(8)
    deployment = PanguDeployment.build(
        cluster, block_hosts=[0, 1], chunk_hosts=[2, 3, 4, 5], replicas=3)
    deployment.establish_mesh()
    return cluster, deployment


def test_mesh_establishment_is_full(pangu):
    cluster, deployment = pangu
    assert deployment.total_connections == 2 * 4
    assert deployment.qp_count() >= 8


def test_block_write_replicates(pangu):
    cluster, deployment = pangu
    block = deployment.block_servers[0]

    def scenario():
        latency = yield from block.write_block(128 * 1024)
        return latency

    latency = run_process(cluster, scenario(), limit=5 * SECONDS)
    assert latency > 0
    written = sum(cs.chunks_written for cs in deployment.chunk_servers)
    assert written == 3
    assert block.writes_completed == 1


def test_replica_placement_rotates(pangu):
    cluster, deployment = pangu
    block = deployment.block_servers[0]

    def scenario():
        for _ in range(4):
            yield from block.write_block(4096)

    run_process(cluster, scenario(), limit=5 * SECONDS)
    # 4 writes × 3 replicas over 4 chunk servers: all servers touched.
    assert all(cs.chunks_written >= 2 for cs in deployment.chunk_servers)


def test_too_few_chunk_servers_raises():
    cluster = build_cluster(4)
    deployment = PanguDeployment.build(
        cluster, block_hosts=[0], chunk_hosts=[1, 2], replicas=3)
    deployment.establish_mesh()
    block = deployment.block_servers[0]

    def scenario():
        yield from block.write_block(4096)

    with pytest.raises(RuntimeError, match="chunk servers"):
        run_process(cluster, scenario(), limit=5 * SECONDS)


def test_essd_closed_loop_io(pangu):
    cluster, deployment = pangu
    frontend = EssdFrontend(cluster, host_id=6, block_server_host=0)

    def scenario():
        completed = yield from frontend.run_closed_loop(40)
        return completed

    completed = run_process(cluster, scenario(), limit=30 * SECONDS)
    assert completed == 40
    assert frontend.failures == 0
    timeline = frontend.iops_timeline(bucket_ns=10 * MILLIS)
    assert timeline and max(iops for _, iops in timeline) > 0
    # Every I/O was replicated 3 ways.
    written = sum(cs.chunks_written for cs in deployment.chunk_servers)
    assert written == 120


def test_essd_profile_driven_io(pangu):
    cluster, deployment = pangu
    frontend = EssdFrontend(cluster, host_id=6, block_server_host=0,
                            io_bytes=16 * 1024)
    profile = burst_profile(duration_ns=200 * MILLIS, base=500, burst=1500,
                            burst_start_ns=80 * MILLIS,
                            burst_len_ns=60 * MILLIS)

    def scenario():
        yield from frontend.run_profile(profile, 200 * MILLIS)

    run_process(cluster, scenario(), limit=30 * SECONDS)
    cluster.sim.run(until=cluster.sim.now + 100 * MILLIS)
    assert len(frontend.completions) > 30
    timeline = frontend.iops_timeline(bucket_ns=40 * MILLIS)
    peak = max(iops for _, iops in timeline)
    floor = min(iops for _, iops in timeline[:-1] or timeline)
    assert peak > floor  # the burst is visible


def test_xdb_transactions(pangu):
    cluster, deployment = pangu
    frontend = XdbFrontend(cluster, host_id=7, block_server_host=1)

    def scenario():
        completed = yield from frontend.run_transactions(15)
        return completed

    completed = run_process(cluster, scenario(), limit=30 * SECONDS)
    assert completed == 15
    assert frontend.failures == 0
    latencies = [latency for _, latency in frontend.completions]
    assert all(lat > 0 for lat in latencies)
    # Each txn wrote one redo block, 3-way replicated.
    written = sum(cs.chunks_written for cs in deployment.chunk_servers)
    assert written == 45


def test_essd_and_xdb_share_the_deployment(pangu):
    cluster, deployment = pangu
    essd = EssdFrontend(cluster, host_id=6, block_server_host=0)
    xdb = XdbFrontend(cluster, host_id=7, block_server_host=1)
    essd_proc = cluster.sim.spawn(essd.run_closed_loop(20))
    xdb_proc = cluster.sim.spawn(xdb.run_transactions(10))
    cluster.sim.run_until_event(
        cluster.sim.all_of([essd_proc, xdb_proc]),
        limit=cluster.sim.now + 60 * SECONDS)
    assert len(essd.completions) == 20
    assert len(xdb.completions) == 10
