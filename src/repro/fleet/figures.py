"""Fleet scenarios for the paper's figures and tables (``--spec figures``).

The simulations behind the ``benchmarks/`` tests of Figs. 3, 7, 8, 9, 11
and 12, Sec. II, VII-C, VII-F and IX and Table II; the ablations and
Fig. 10 live in :mod:`repro.fleet.scenarios`.  A figure made of independent simulations
(a system, size, mode or trial seed each) is its spec's grid.  A run
returns plain JSON, and each body keeps the call order and seed of the
driver it replaces — a Monitor is built by hand where the figure had one,
so no fabric sampler runs that the figure did not run — so the numbers
are the ones the inline drivers produced.
"""

from __future__ import annotations

from statistics import mean
from typing import Any, Dict, List, Tuple

from repro.analysis import ClockSync, Filter, Monitor, Tracer
from repro.analysis.faultfilter import FaultRule
from repro.analysis.stats import percentile
from repro.apps import EssdFrontend, PanguDeployment, XdbFrontend
from repro.apps.pangu import BlockServer
from repro.baselines import (IbvPingPong, LibfabricEndpoint, UcxEndpoint,
                             XioEndpoint)
from repro.baselines.common import MiddlewareEndpoint, run_pingpong
from repro.cluster import Cluster
from repro.fleet.runner import RunContext
from repro.fleet.scenarios import scenario
from repro.memory import AllocMode, HostMemory, OutOfMemory
from repro.rnic import Opcode, QpStateError, WorkRequest
from repro.sim import MICROS, MILLIS, SECONDS, SimParams
from repro.sim.params import congested_params
from repro.tools import XrPerf, XrPing, XrStat
from repro.workloads.traces import burst_profile, diurnal_profile, rate_at
from repro.xrdma import XrdmaConfig
from repro.xrdma.memcache import MemCache
from repro.xrdma.message import MessageKind

__all__ = ["fig3_monitoring", "fig7_pingpong", "fig8_essd_recovery",
           "fig9_rnr_counter", "fig11_online_resources", "fig12_anti_jitter",
           "sec2_dual_port", "sec7c_single_connection", "sec7c_connect_storm",
           "sec7f_memory_modes", "sec7f_qp_scaling", "sec7f_srq",
           "sec9_dct_vs_rc", "tab2_bug_tracking"]

#: width of the completion-count buckets Figs. 8 and 11 report
COMPLETION_BUCKET = 100 * MILLIS

FIG8_END = 1200 * MILLIS
FIG9_BURSTS = 8
FIG9_BURST_LEN = 24
FIG12_DURATION = 1200 * MILLIS
FIG12_BURST_START = 400 * MILLIS
FIG12_BURST_LEN = 400 * MILLIS
SEC7F_CACHE_ENTRIES = 64
SEC7F_SENDERS = 4
SEC7F_MESSAGES = 93     # 3 full-window bursts per sender
SEC9_PEERS = 12
SEC9_ROUNDS = 6


# -------------------------------------------------------------- helpers
def _establish(cluster: Cluster, client_id: int, server_id: int,
               service_port: int) -> Tuple[Any, Any]:
    """CM handshake between two hosts; returns (client_conn, server_conn)."""
    proc = cluster.sim.spawn(MiddlewareEndpoint.connect_pair(
        cluster, client_id, server_id, service_port))
    client, server = cluster.sim.run_until_event(proc)
    return client.conn, server.conn


def _completion_buckets(frontends: List[Any]) -> List[Tuple[int, int]]:
    """``(bucket index, completions)`` pairs over ``COMPLETION_BUCKET``
    wide buckets, in bucket order."""
    counts: Dict[int, int] = {}
    for frontend in frontends:
        for when, _latency in frontend.completions:
            index = when // COMPLETION_BUCKET
            counts[index] = counts.get(index, 0) + 1
    return sorted(counts.items())


# --------------------------------------------------------------- Fig. 3
@scenario("fig3-monitoring")
def fig3_monitoring(ctx: RunContext) -> Dict[str, Any]:
    """Fig. 3: one client's tx-rate and QP-count series under a diurnal
    traffic profile, sampled every 50 ms."""
    duration, period = 2 * SECONDS, 500 * MILLIS
    cluster = ctx.build_cluster(3)
    monitor = Monitor(cluster.sim, cluster.stats,
                      sample_interval_ns=50 * MILLIS)
    server = cluster.xrdma_context(1)
    server.listen(9400)
    client = cluster.xrdma_context(0)
    monitor.attach(client)
    sim = cluster.sim

    def sink():
        while True:
            yield server.incoming.get()

    sim.spawn(sink())
    profile = diurnal_profile(duration, period, low=200, high=4000)

    def driver():
        channel = yield from client.connect(1, 9400)
        started = sim.now
        while sim.now - started < duration:
            rate = rate_at(profile, sim.now - started)
            gap = max(int(SECONDS / rate), 1)
            client.send_msg(channel, 32 * 1024, kind=MessageKind.ONEWAY)
            yield sim.timeout(gap)

    sim.spawn(driver())
    sim.run(until=duration + 100 * MILLIS)
    return {"tx_rates": monitor.rate_per_second(f"ctx{client.ctx_id}.tx_bytes"),
            "qp_counts": monitor.values(f"ctx{client.ctx_id}.qp_count")}


# --------------------------------------------------------------- Fig. 7
_FIG7_ITERS = 24
_FIG7_CONFIGS = {
    "small-mode": XrdmaConfig(small_msg_size=128 * 1024),  # eager for all
    "large-mode": XrdmaConfig(small_msg_size=1),           # rendezvous all
    "xrdma-BD": XrdmaConfig(),                             # 4 KB threshold
    "xrdma-reqrsp": XrdmaConfig(req_rsp_mode=True, trace_sample_mask=1),
}
_FIG7_BASELINES = {"ibv-pingpong": IbvPingPong, "ucx-am-rc": UcxEndpoint,
                   "libfabric": LibfabricEndpoint, "xio": XioEndpoint}


@scenario("fig7-pingpong")
def fig7_pingpong(ctx: RunContext) -> Dict[str, Any]:
    """Fig. 7: one-way ping-pong latency (µs) of one system at one size.

    params: system (an X-RDMA mode or a baseline middleware), size.
    """
    system, size = str(ctx.params["system"]), int(ctx.params["size"])
    cluster = ctx.build_cluster(2)
    if system in _FIG7_BASELINES:
        latencies = run_pingpong(cluster, _FIG7_BASELINES[system], size,
                                 iterations=_FIG7_ITERS)
        return {"latency_us": mean(latencies) / 1000}
    config = _FIG7_CONFIGS[system]
    client = cluster.xrdma_context(0, config=config)
    server = cluster.xrdma_context(1, config=config)
    accepted = server.listen(8700)
    one_way: List[float] = []

    def pingpong():
        channel = yield from client.connect(1, 8700)
        server_channel = yield accepted.get()
        # Echo the same size back, like ibv_rc_pingpong and the baselines.
        server_channel.on_request = \
            lambda msg: server.send_response(msg, msg.payload_size)
        for index in range(_FIG7_ITERS):
            t0 = cluster.sim.now
            request = client.send_request(channel, size)
            yield request.response
            if index >= 3:
                one_way.append((cluster.sim.now - t0) / 2)

    proc = cluster.sim.spawn(pingpong())
    cluster.sim.run_until_event(proc, limit=60 * SECONDS)
    return {"latency_us": mean(one_way) / 1000}


# --------------------------------------------------------------- Fig. 8
@scenario("fig8-essd-recovery")
def fig8_essd_recovery(ctx: RunContext) -> Dict[str, Any]:
    """Fig. 8: ESSD completions per bucket while a restarted deployment
    re-establishes its mesh under front-end load."""
    cluster = ctx.build_cluster(8)
    deployment = PanguDeployment.build(
        cluster, block_hosts=[0, 1], chunk_hosts=[2, 3, 4, 5], replicas=3)
    # The connect storm happens *while* front-ends are already issuing:
    # spawn the mesh establishment and the front-ends together (restart).
    sim = cluster.sim
    chunk_hosts = [cs.host_id for cs in deployment.chunk_servers]
    for block_server in deployment.block_servers:
        sim.spawn(block_server.connect_mesh(chunk_hosts))

    frontends = []
    for index in range(2):
        frontend = EssdFrontend(cluster, host_id=6 + index,
                                block_server_host=index,
                                io_bytes=128 * 1024, queue_depth=4)
        frontends.append(frontend)
        sim.spawn(frontend.run_closed_loop(10 ** 9))   # duration-bounded

    sim.run(until=FIG8_END)
    return {"completions": _completion_buckets(frontends)}


# --------------------------------------------------------------- Fig. 9
@scenario("fig9-rnr-counter")
def fig9_rnr_counter(ctx: RunContext) -> Dict[str, Any]:
    """Fig. 9: RNR NAKs from bursty senders into a slow receiver.

    params: system — ``raw-rdma`` (bursts past a slowly replenished RQ)
    or ``xrdma`` (the same bursts through a channel's seq-ack window).
    """
    payload = 1024
    cluster = ctx.build_cluster(2)
    sim = cluster.sim
    if ctx.params["system"] == "raw-rdma":
        conn_c, conn_s = _establish(cluster, 0, 1, 7000)
        client, server = cluster.host(0), cluster.host(1)

        def slow_receiver():
            # The application posts receives late — exactly the raw-RDMA
            # failure mode: the sender has no idea how fast we are.
            while True:
                if conn_s.qp.recv_buffers_posted < 8:
                    yield server.verbs.post_recv(conn_s.qp, WorkRequest(
                        opcode=Opcode.RECV, length=payload + 64))
                conn_s.qp.recv_cq.poll()
                yield sim.timeout(60 * MICROS)

        def bursty_sender():
            for _ in range(FIG9_BURSTS):
                for _ in range(FIG9_BURST_LEN):
                    try:
                        yield client.verbs.post_send(conn_c.qp, WorkRequest(
                            opcode=Opcode.SEND, length=payload,
                            signaled=False))
                    except QpStateError:    # SQ full under pressure
                        yield sim.timeout(100 * MICROS)
                yield sim.timeout(2 * MILLIS)

        sim.spawn(slow_receiver())
        sim.spawn(bursty_sender())
        sim.run(until=200 * MILLIS)
        return {"rnr_naks": cluster.stats.rnr_naks}

    client_ctx = cluster.xrdma_context(0)
    server_ctx = cluster.xrdma_context(1)
    server_ctx.listen(8800)

    def consumer():
        while True:
            yield server_ctx.incoming.get()
            yield sim.timeout(60 * MICROS)   # same slow application

    def producer():
        channel = yield from client_ctx.connect(1, 8800)
        for _ in range(FIG9_BURSTS):
            for _ in range(FIG9_BURST_LEN):
                client_ctx.send_msg(channel, payload)
            yield sim.timeout(2 * MILLIS)

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run(until=400 * MILLIS)
    return {"rnr_naks": cluster.stats.rnr_naks}


# -------------------------------------------------------------- Fig. 11
@scenario("fig11-online-resources")
def fig11_online_resources(ctx: RunContext) -> Dict[str, Any]:
    """Fig. 11: a Pangu deployment under ESSD load rolls in two more block
    servers at 600 ms (the online upgrade).  Reports the deployment's QP
    count before and after, the original front-ends' completions per
    bucket, and block server 0's memory-cache series."""
    cluster = ctx.build_cluster(12)
    monitor = Monitor(cluster.sim, cluster.stats,
                      sample_interval_ns=50 * MILLIS)
    deployment = PanguDeployment.build(
        cluster, block_hosts=[0, 1], chunk_hosts=[4, 5, 6, 7], replicas=3)
    deployment.establish_mesh()
    for block_server in deployment.block_servers:
        monitor.attach(block_server.ctx)
    monitor.start_fabric_sampler(50 * MILLIS)

    sim = cluster.sim
    frontends = []
    for index, block_host in enumerate([0, 1]):
        frontend = EssdFrontend(cluster, host_id=8 + index,
                                block_server_host=block_host,
                                io_bytes=128 * 1024, queue_depth=4)
        frontends.append(frontend)
        sim.spawn(frontend.run_closed_loop(100_000))

    sim.run(until=600 * MILLIS)
    qp_before = deployment.qp_count()

    # The "online upgrade": two more block servers join and re-mesh.
    chunk_hosts = [cs.host_id for cs in deployment.chunk_servers]
    for host in (2, 3):
        block_server = BlockServer(cluster, host, replicas=3)
        deployment.block_servers.append(block_server)
        monitor.attach(block_server.ctx)
        sim.spawn(block_server.connect_mesh(chunk_hosts))
    for index, block_host in enumerate([2, 3]):
        frontend = EssdFrontend(cluster, host_id=10 + index,
                                block_server_host=block_host,
                                io_bytes=128 * 1024, queue_depth=4)
        frontends.append(frontend)
        sim.spawn(frontend.run_closed_loop(100_000))

    sim.run(until=1400 * MILLIS)
    prefix = f"ctx{deployment.block_servers[0].ctx.ctx_id}"
    return {"qp_before": qp_before, "qp_after": deployment.qp_count(),
            "completions": _completion_buckets(frontends[:2]),
            "mem_occupied": monitor.values(f"{prefix}.mem_occupied"),
            "mem_in_use": monitor.values(f"{prefix}.mem_in_use")}


# -------------------------------------------------------------- Fig. 12
def _window_stats(app: Any, label: str) -> Dict[str, Any]:
    calm = app.latencies_in(100 * MILLIS, FIG12_BURST_START)
    burst = app.latencies_in(FIG12_BURST_START,
                             FIG12_BURST_START + FIG12_BURST_LEN)
    return {
        "label": label,
        "calm_p50_us": percentile(calm, 0.50) / 1000,
        "burst_p50_us": percentile(burst, 0.50) / 1000,
        "calm_p95_us": percentile(calm, 0.95) / 1000,
        "burst_p95_us": percentile(burst, 0.95) / 1000,
        "calm_n": len(calm),
        "burst_n": len(burst),
    }


@scenario("fig12-anti-jitter")
def fig12_anti_jitter(ctx: RunContext) -> Dict[str, Any]:
    """Fig. 12: ESSD and X-DB front-ends under a base → 3× → base burst
    profile with flow control on; latency and count per calm/burst
    window for each."""
    cluster = ctx.build_cluster(10, params=congested_params())
    config = XrdmaConfig(flow_control=True)
    deployment = PanguDeployment.build(
        cluster, block_hosts=[0, 1], chunk_hosts=[2, 3, 4, 5],
        replicas=3, config=config)
    deployment.establish_mesh()
    sim = cluster.sim

    essd = EssdFrontend(cluster, host_id=6, block_server_host=0,
                        io_bytes=128 * 1024, config=config)
    essd_profile = burst_profile(FIG12_DURATION, base=500, burst=1500,
                                 burst_start_ns=FIG12_BURST_START,
                                 burst_len_ns=FIG12_BURST_LEN)
    sim.spawn(essd.run_profile(essd_profile, FIG12_DURATION))

    xdb = XdbFrontend(cluster, host_id=7, block_server_host=1,
                      config=config)
    xdb_profile = burst_profile(FIG12_DURATION, base=300, burst=900,
                                burst_start_ns=FIG12_BURST_START,
                                burst_len_ns=FIG12_BURST_LEN)
    sim.spawn(xdb.run_profile(xdb_profile, FIG12_DURATION))

    sim.run(until=FIG12_DURATION + 200 * MILLIS)
    return {"essd": _window_stats(essd, "ESSD"),
            "xdb": _window_stats(xdb, "X-DB")}


# -------------------------------------------------------------- Sec. II
@scenario("sec2-dual-port")
def sec2_dual_port(ctx: RunContext) -> Dict[str, Any]:
    """Sec. II-B: aggregate RDMA-write bandwidth of four flows from one
    host.  params: nic_ports."""
    flows, writes, size = 4, 4, 2 << 20
    cluster = ctx.build_cluster(1 + flows,
                                nic_ports=int(ctx.params["nic_ports"]))
    sender = cluster.host(0)
    sim = cluster.sim
    conns = [_establish(cluster, 0, dst + 1, 7000)
             for dst in range(flows)]

    def stream(conn_c, conn_s, dst):
        host = cluster.host(dst + 1)
        buf = host.memory.alloc(size)
        mr = yield host.verbs.reg_mr(conn_s.qp.pd, buf.addr, buf.length)
        for _ in range(writes):
            # A raise fails the run and discards its cluster, buffer too.
            yield sender.verbs.post_send(  # xr-lint: disable=exception-edge-leak
                conn_c.qp, WorkRequest(
                    opcode=Opcode.WRITE, length=size, remote_addr=mr.addr,
                    rkey=mr.rkey))
        done = 0
        while done < writes:
            done += len(conn_c.qp.send_cq.poll())
            yield sim.timeout(10_000)
        yield host.verbs.dereg_mr(conn_s.qp.pd, mr)
        host.memory.free(buf.addr)

    t0 = sim.now
    procs = [sim.spawn(stream(conn_c, conn_s, dst))
             for dst, (conn_c, conn_s) in enumerate(conns)]
    sim.run_until_event(sim.all_of(procs), limit=60 * SECONDS)
    return {"aggregate_gbps": flows * writes * size * 8 / (sim.now - t0)}


# ------------------------------------------------------------ Sec. VII-C
@scenario("sec7c-single-connection")
def sec7c_single_connection(ctx: RunContext) -> Dict[str, Any]:
    """Sec. VII-C: one connection's establishment time (ns) on a fresh
    cluster, cold or with both QP caches prewarmed.  params: warm (0/1).
    The seed does not reach the connect path, so one seed is the whole
    measurement."""
    cluster = ctx.build_cluster(2)
    client = cluster.xrdma_context(0)
    server = cluster.xrdma_context(1)
    server.listen(9700)
    sim = cluster.sim

    if ctx.params["warm"]:
        def warm():
            yield from client.qpcache.prewarm(1)
            yield from server.qpcache.prewarm(1)
        proc = sim.spawn(warm())
        sim.run_until_event(proc, limit=SECONDS)

    def connector():
        t0 = sim.now
        yield from client.connect(1, 9700)
        return sim.now - t0

    proc = sim.spawn(connector())
    return {"connect_ns": sim.run_until_event(proc, limit=60 * SECONDS)}


@scenario("sec7c-connect-storm")
def sec7c_connect_storm(ctx: RunContext) -> Dict[str, Any]:
    """Sec. VII-C: simulated seconds for 8 clients × 32 connections to
    one host.  params: warm (0/1: prewarmed QP caches)."""
    n_clients, conns_per_client = 8, 32
    cluster = ctx.build_cluster(n_clients + 1)
    server = cluster.xrdma_context(n_clients)
    server.listen(9700)
    sim = cluster.sim
    contexts = [cluster.xrdma_context(h) for h in range(n_clients)]
    if ctx.params["warm"]:
        def warm_all():
            yield from server.qpcache.prewarm(
                min(n_clients * conns_per_client, 64))
            for xctx in contexts:
                yield from xctx.qpcache.prewarm(min(conns_per_client, 64))
        proc = sim.spawn(warm_all())
        sim.run_until_event(proc, limit=120 * SECONDS)

    t0 = sim.now

    def storm(xctx):
        for _ in range(conns_per_client):
            yield from xctx.connect(n_clients, 9700)

    procs = [sim.spawn(storm(xctx)) for xctx in contexts]
    sim.run_until_event(sim.all_of(procs), limit=sim.now + 300 * SECONDS)
    return {"storm_s": (sim.now - t0) / 1e9}


# ------------------------------------------------------------ Sec. VII-F
_ALLOC_MODES = {"non-continuous": AllocMode.ANONYMOUS,
                "continuous": AllocMode.CONTIGUOUS,
                "hugepage": AllocMode.HUGEPAGE}


@scenario("sec7f-memory-modes")
def sec7f_memory_modes(ctx: RunContext) -> Dict[str, Any]:
    """Sec. VII-F (experience 3): 4 MB allocation cost before and after
    alloc/free churn, and 64 MB allocation failures, in one host-memory
    mode.  params: mode."""
    mb = 1 << 20
    mode = _ALLOC_MODES[str(ctx.params["mode"])]
    memory = HostMemory(capacity_bytes=8 << 30, hugepage_pool_bytes=1 << 30)
    cost_fresh = memory.alloc_cost_ns(4 * mb, mode)
    live = []                           # alloc/free churn fragments
    for _ in range(2000):
        live.append(memory.alloc(4 * mb))
        if len(live) > 8:
            memory.free(live.pop(0).addr)
    for allocation in live:
        memory.free(allocation.addr)
    cost_fragmented = memory.alloc_cost_ns(4 * mb, mode)
    failures = 0
    for _ in range(16):
        try:
            allocation = memory.alloc(64 * mb, mode)
            memory.free(allocation.addr)
        except OutOfMemory:
            failures += 1
    return {
        "fresh_us": cost_fresh / 1000,
        "fragmented_us": cost_fragmented / 1000,
        "slowdown": cost_fragmented / cost_fresh,
        "large_alloc_failures": failures,
        "reclaims": memory.reclaim_events,
        "fragmentation": memory.fragmentation,
    }


@scenario("sec7f-qp-scaling")
def sec7f_qp_scaling(ctx: RunContext) -> Dict[str, Any]:
    """Sec. VII-F (experience 1): victim ping-pong latency (µs) while
    ``qps`` QPs cycle through a ``SEC7F_CACHE_ENTRIES``-entry NIC
    context cache.  params: qps."""
    total_qps = int(ctx.params["qps"])
    params = SimParams(nic_qp_cache_entries=SEC7F_CACHE_ENTRIES)
    cluster = ctx.build_cluster(2, params=params)
    sim = cluster.sim
    client, server = cluster.host(0), cluster.host(1)

    conns = [_establish(cluster, 0, 1, 7000 + i)
             for i in range(total_qps)]
    victim_c, victim_s = conns[0]

    def background(conn_c, offset):
        """Sparse zero-byte writes cycle every QP through the NIC's
        context cache without saturating the transmit engine (~15%
        utilization regardless of QP count)."""
        yield sim.timeout(offset)
        while True:
            yield client.verbs.post_send(conn_c.qp, WorkRequest(
                opcode=Opcode.WRITE, length=0, remote_addr=0, rkey=1,
                signaled=False))
            yield sim.timeout(total_qps * 15 * MICROS)

    for index, (conn_c, _conn_s) in enumerate(conns[1:]):
        sim.spawn(background(conn_c, index * 15 * MICROS))

    latencies: List[int] = []

    def victim():
        for _ in range(64):
            yield server.verbs.post_recv(victim_s.qp, WorkRequest(
                opcode=Opcode.RECV, length=256))
        for index in range(24):
            # Infrequent pings: every other QP gets touched in between,
            # so at high QP counts the victim's context is evicted.
            yield sim.timeout(2000 * MICROS)
            t0 = sim.now
            yield client.verbs.post_send(victim_c.qp, WorkRequest(
                opcode=Opcode.SEND, length=64, signaled=False))
            # Bounded by the run_until_event limit below.
            while not victim_s.qp.recv_cq.poll(1):  # xr-lint: disable=unbounded-yield-loop
                yield sim.timeout(200)
            if index >= 4:
                latencies.append(sim.now - t0)

    proc = sim.spawn(victim())
    sim.run_until_event(proc, limit=120 * SECONDS)
    return {"latency_us": mean(latencies) / 1000}


@scenario("sec7f-srq")
def sec7f_srq(ctx: RunContext) -> Dict[str, Any]:
    """Sec. VII-F (experience 2): a four-sender fan-in of full-window
    bursts over per-QP receive queues or one 8-deep SRQ.
    params: use_srq (0/1)."""
    burst = 31
    config = XrdmaConfig(use_srq=bool(ctx.params["use_srq"]), srq_size=8)
    cluster = ctx.build_cluster(SEC7F_SENDERS + 1)
    server = cluster.xrdma_context(SEC7F_SENDERS, config=config)
    server.listen(8900)
    sim = cluster.sim

    def sink():
        while True:
            yield server.incoming.get()

    sim.spawn(sink())

    def sender(host):
        xctx = cluster.xrdma_context(host)
        channel = yield from xctx.connect(SEC7F_SENDERS, 8900)
        sent = 0
        while sent < SEC7F_MESSAGES:
            for _ in range(burst):      # full-window bursts: the shared
                if sent < SEC7F_MESSAGES:   # pool replenish cannot keep pace
                    xctx.send_msg(channel, 512)
                    sent += 1
            yield sim.timeout(3_000_000)

    procs = [sim.spawn(sender(host)) for host in range(SEC7F_SENDERS)]
    sim.run_until_event(sim.all_of(procs), limit=120 * SECONDS)
    sim.run(until=sim.now + 200 * MILLIS)
    return {
        "delivered": sum(ch.stats["rx_msgs"]
                         for ch in server.channels.values()),
        "recv_buffer_bytes": server.memcache.in_use_bytes,
        "rnr_naks": cluster.stats.rnr_naks,
    }


# -------------------------------------------------------------- Sec. IX
@scenario("sec9-dct-vs-rc")
def sec9_dct_vs_rc(ctx: RunContext) -> Dict[str, Any]:
    """Sec. IX: setup time, round-robin fan-out latency and NIC objects
    of one sender reaching ``SEC9_PEERS`` peers.

    params: transport — ``rc`` (a dedicated RC QP per peer: expensive
    setup, cheap fan-out) or ``dct`` (one DCI and per-peer in-band
    sessions: cheap setup, a drain and switch on every retarget).
    """
    cluster = ctx.build_cluster(SEC9_PEERS + 1)
    sim = cluster.sim
    sender = cluster.host(0)
    latencies: List[int] = []
    if ctx.params["transport"] == "rc":
        t0 = sim.now
        conns = [_establish(cluster, 0, peer + 1, 7000)
                 for peer in range(SEC9_PEERS)]
        setup_ns = sim.now - t0

        def prepost():
            for _conn_c, conn_s in conns:
                host = cluster.hosts[conn_s.local_host]
                for _ in range(SEC9_ROUNDS + 2):
                    yield host.verbs.post_recv(conn_s.qp, WorkRequest(
                        opcode=Opcode.RECV, length=4096))

        proc = sim.spawn(prepost())
        sim.run_until_event(proc, limit=10 * SECONDS)

        def rc_fan_out():
            for _ in range(SEC9_ROUNDS):
                for conn_c, conn_s in conns:
                    t_send = sim.now
                    yield sender.verbs.post_send(conn_c.qp, WorkRequest(
                        opcode=Opcode.SEND, length=512, signaled=False))
                    # Bounded by the run_until_event limit below.
                    while not conn_s.qp.recv_cq.poll(1):  # xr-lint: disable=unbounded-yield-loop
                        yield sim.timeout(500)
                    latencies.append(sim.now - t_send)

        proc = sim.spawn(rc_fan_out())
        sim.run_until_event(proc, limit=60 * SECONDS)
        return {"setup_ns": setup_ns, "latency_ns": mean(latencies),
                "nic_objects": SEC9_PEERS * 2}  # one at each end per peer

    pd = sender.verbs.alloc_pd()
    cq = sender.verbs.create_cq()
    dci = sender.verbs.create_dc_initiator(pd, cq)
    targets = []
    t0 = sim.now
    for peer in range(SEC9_PEERS):
        host = cluster.host(peer + 1)
        t_pd = host.verbs.alloc_pd()
        t_cq = host.verbs.create_cq()
        srq = host.verbs.create_srq(depth=128)
        for _ in range(SEC9_ROUNDS + 2):
            srq.post(WorkRequest(opcode=Opcode.RECV, length=4096))
        targets.append(host.verbs.create_dc_target(t_pd, t_cq, srq))
    setup_ns = sim.now - t0      # SRQ/DCT creation is host-side & instant

    def dct_fan_out():
        for _ in range(SEC9_ROUNDS):
            for peer, target in enumerate(targets):
                t_send = sim.now
                dci.post_send(peer + 1, target.dct_num, WorkRequest(
                    opcode=Opcode.SEND, length=512, signaled=False))
                # Bounded by the run_until_event limit below.
                while not target.recv_cq.poll(1):  # xr-lint: disable=unbounded-yield-loop
                    yield sim.timeout(500)
                latencies.append(sim.now - t_send)

    proc = sim.spawn(dct_fan_out())
    sim.run_until_event(proc, limit=60 * SECONDS)
    # NIC-side objects: one DCI + per-peer lightweight sessions.
    return {"setup_ns": setup_ns, "latency_ns": mean(latencies),
            "nic_objects": 1 + dci.session_count, "switches": dci.switches}


# ------------------------------------------------------------- Table II
def _heavy_incast(ctx: RunContext) -> bool:
    """XR-Stat's crucial indexes expose the incast."""
    cluster = ctx.build_cluster(5, params=congested_params())
    perf = XrPerf(cluster)
    perf.run_incast([0, 1, 2, 3], 4, size=128 * 1024,
                    messages_per_source=10,
                    config=XrdmaConfig(flow_control=False))
    crucial = XrStat(cluster).crucial_indexes()
    return crucial["cnps_sent"] > 0 or crucial["pause_frames"] > 0


def _broken_network(ctx: RunContext) -> bool:
    """keepAlive + XR-Ping both notice the dead host."""
    cluster = ctx.build_cluster(3)
    contexts = [cluster.xrdma_context(h, config=XrdmaConfig(
        keepalive_intv_ms=5.0)) for h in range(3)]
    ping = XrPing(cluster, contexts)
    cluster.host(2).nic.crash()
    proc = cluster.sim.spawn(ping.run_mesh())
    cluster.sim.run_until_event(proc, limit=120 * SECONDS)
    return (0, 2) in ping.unreachable_pairs()


def _jitter_long_tail(ctx: RunContext) -> bool:
    """Tracing's poll-gap watchdog catches the stalled thread."""
    cluster = ctx.build_cluster(2)
    config = XrdmaConfig(req_rsp_mode=True, trace_sample_mask=1)
    client = cluster.xrdma_context(0, config=config)
    server = cluster.xrdma_context(1, config=config)
    tracer = Tracer(client, ClockSync(cluster.rng))
    server.listen(9500)

    def exchange():
        channel = yield from client.connect(1, 9500)
        client.send_msg(channel, 64)
        yield server.incoming.get()

    proc = cluster.sim.spawn(exchange())
    cluster.sim.run_until_event(proc, limit=5 * SECONDS)
    client.inject_stall(2 * MILLIS)     # the allocator-lock bug
    cluster.sim.run(until=cluster.sim.now + 50 * MILLIS)
    return bool(tracer.poll_gap_log)


def _hard_to_reproduce(ctx: RunContext) -> bool:
    """Filter injects the elusive drop so the app-level bug shows up."""
    cluster = ctx.build_cluster(2)
    client = cluster.xrdma_context(0)
    server = cluster.xrdma_context(1)
    server.listen(9600)
    server.filter = Filter(cluster.rng.stream("tab2"))
    server.filter.add_rule(FaultRule(drop_probability=1.0))

    def send_one():
        channel = yield from client.connect(1, 9600)
        client.send_msg(channel, 64)

    proc = cluster.sim.spawn(send_one())
    cluster.sim.run_until_event(proc, limit=5 * SECONDS)
    cluster.sim.run(until=cluster.sim.now + 20 * MILLIS)
    return server.filter.dropped == 1 and not server.incoming.items


def _memory_bug(ctx: RunContext) -> bool:
    """The isolated memory cache flags the out-of-bounds access."""
    cluster = ctx.build_cluster(2)
    host = cluster.host(0)
    pd = host.verbs.alloc_pd()
    cache = MemCache(host.verbs, pd, mr_bytes=1 << 20, isolated=True)

    def alloc_one():
        buffer = yield from cache.alloc(4096)
        return buffer

    proc = cluster.sim.spawn(alloc_one())
    buffer = cluster.sim.run_until_event(proc, limit=SECONDS)
    # A buggy application touches past its buffer:
    in_bounds = cache.check_access(buffer.addr, buffer.size)
    out_of_bounds = cache.check_access(buffer.addr + (1 << 21), 64)
    return in_bounds and not out_of_bounds and cache.out_of_bound_hits == 1


#: bug -> (Table II row label, tracking method, the injection and check)
_TAB2_BUGS = {
    "heavy-incast": ("heavy incast", "XR-Stat crucial indexes",
                     _heavy_incast),
    "broken-network": ("broken network", "keepAlive / XR-Ping",
                       _broken_network),
    "jitter": ("jitter/long tail", "tracing poll watchdog",
               _jitter_long_tail),
    "hard-to-reproduce": ("hard-to-reproduce bug", "Filter fault injection",
                          _hard_to_reproduce),
    "memory-bug": ("memory leak/crash", "isolated memory cache",
                   _memory_bug),
}


@scenario("tab2-bug-tracking")
def tab2_bug_tracking(ctx: RunContext) -> Dict[str, Any]:
    """Table II: inject one bug class and report whether its designated
    tracking mechanism caught it.  params: bug."""
    label, method, inject = _TAB2_BUGS[str(ctx.params["bug"])]
    return {"bug": label, "method": method, "caught": inject(ctx)}
