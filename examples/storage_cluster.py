"""A scaled-down Pangu/ESSD storage cluster (the Sec. II-C workload).

Builds a Clos fabric, deploys block servers and chunk servers, runs an
ESSD front-end and an X-DB front-end against them, and prints the
utilization/latency picture plus XR-Stat's per-channel table.

Run:  python examples/storage_cluster.py
"""

from statistics import mean

from repro.apps import EssdFrontend, PanguDeployment, XdbFrontend
from repro.cluster import build_cluster
from repro.sim import MILLIS, SECONDS
from repro.tools import XrStat


def main():
    cluster = build_cluster(n_hosts=10, tors_per_pod=2, hosts_per_tor=5)
    deployment = PanguDeployment.build(
        cluster, block_hosts=[0, 1], chunk_hosts=[2, 3, 4, 5], replicas=3)

    elapsed_ns = deployment.establish_mesh()
    print(f"full mesh of {deployment.total_connections} connections "
          f"established in {elapsed_ns / 1e6:.1f} ms")

    essd = EssdFrontend(cluster, host_id=6, block_server_host=0,
                        io_bytes=128 * 1024, queue_depth=8)
    xdb = XdbFrontend(cluster, host_id=7, block_server_host=1)

    essd_proc = cluster.sim.spawn(essd.run_closed_loop(400))
    xdb_proc = cluster.sim.spawn(xdb.run_transactions(200))
    cluster.sim.run_until_event(
        cluster.sim.all_of([essd_proc, xdb_proc]),
        limit=cluster.sim.now + 120 * SECONDS)

    essd_latencies = [lat for _, lat in essd.completions]
    xdb_latencies = [lat for _, lat in xdb.completions]
    print(f"ESSD: {len(essd_latencies)} x 128 KB writes, "
          f"mean latency {mean(essd_latencies) / 1000:.0f} us")
    print(f"X-DB: {len(xdb_latencies)} transactions, "
          f"mean latency {mean(xdb_latencies) / 1000:.0f} us")
    replicated = sum(cs.chunks_written for cs in deployment.chunk_servers)
    print(f"chunk servers persisted {replicated} chunk writes "
          f"(3-way replication)")

    stat = XrStat(cluster)
    for block_server in deployment.block_servers:
        stat.attach(block_server.ctx)
    print()
    print(stat.format())


if __name__ == "__main__":
    main()
