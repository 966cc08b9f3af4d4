"""The fleet's scenario library: the paper sweeps as parameterized callables.

Each scenario is a function ``(ctx: RunContext) -> dict`` taking its knobs
from ``ctx.params`` and returning flat JSON-able metrics.  These are the
*single* implementations of the ablation grids and the Fig. 10 incast:
the fleet specs in :mod:`repro.fleet.experiments` sweep them across seeds
and grid points in parallel, and ``benchmarks/test_ablations.py`` /
``test_fig10_flow_control.py`` assert on the records of those same runs
(the ``figures`` spec set; :mod:`repro.fleet.figures` holds the other
figures' bodies).

Registration is by name so worker processes resolve scenarios from the
task string alone::

    @scenario("fragment-incast")
    def fragment_incast(ctx): ...
"""

from __future__ import annotations

from collections import deque
from statistics import mean
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.analysis.stats import nearest_rank
from repro.cluster import (RACK_HOSTS, cluster_dims, fabric_footprint,
                           rack_shard, remote_peer, spine_tx_bytes)
from repro.fleet.runner import RunContext, ScenarioFn
from repro.net.aggregate import AggregateTraffic
from repro.sim import MICROS, MILLIS, SECONDS
from repro.sim.params import congested_params
from repro.tools.xr_perf import XrPerf
from repro.workloads.flows import request_loop
from repro.xrdma import XrdmaConfig
from repro.xrdma.memcache import MemCache

__all__ = ["SCENARIOS", "scenario", "fragment_incast", "rpc_latency",
           "window_throughput", "mr_registration", "fig10_incast",
           "smoke_incast", "traced_rpc", "ctrl_plane",
           "cluster_connect_storm", "cluster_incast"]

SCENARIOS: Dict[str, ScenarioFn] = {}


def scenario(name: str) -> Callable[[ScenarioFn], ScenarioFn]:
    """Register a scenario under ``name`` (what specs/tasks reference)."""
    def register(fn: ScenarioFn) -> ScenarioFn:
        if name in SCENARIOS:
            raise ValueError(f"duplicate scenario name {name!r}")
        SCENARIOS[name] = fn
        return fn
    return register


# -------------------------------------------------------- shared bodies
def _closed_loop_rpc(ctx: RunContext, config: XrdmaConfig, port: int,
                     size: int) -> Tuple[float, bool, Any, Any]:
    """One client, one server, ``config`` on both ends: 16 sequential
    ``size``-byte RPC round trips (:func:`request_loop`), the first three
    dropped as warmup.

    Returns ``(rtt_us, eager, channel, server_channel)``: the unrounded
    mean, whether the size went eager, and the two ends' channels for
    callers that report protocol counters.
    """
    cluster = ctx.build_cluster(2)
    client = cluster.xrdma_context(0, config=config)
    server = cluster.xrdma_context(1, config=config)
    accepted = server.listen(port)
    latencies: List[int] = []

    def run():
        channel = yield from client.connect(1, port)
        server_channel = yield accepted.get()
        server_channel.on_request = \
            lambda msg: server.send_response(msg, 64)
        yield from request_loop(client, channel, size, 16, latencies)
        return channel, server_channel

    proc = cluster.sim.spawn(run())
    channel, server_channel = cluster.sim.run_until_event(
        proc, limit=60 * SECONDS)
    return (mean(latencies[3:]) / 1000,         # drop warmup iterations
            size <= config.small_msg_size, channel, server_channel)


def _congested_incast(ctx: RunContext, config: XrdmaConfig, size: int,
                      messages: int, n_sources: int = 4,
                      counters: Sequence[str] = (
                          "cnps_sent", "pause_frames", "retransmissions"),
                      ) -> Dict[str, Any]:
    """Many-to-one incast on shallow buffers (``congested_params``) with
    the Monitor attached: ``n_sources`` hosts, four streams each.
    Returns goodput and the crucial-index ``counters`` the caller's
    table reports.
    """
    sources = [src for src in range(n_sources) for _ in range(4)]
    cluster = ctx.build_cluster(n_sources + 1, params=congested_params())
    ctx.monitor(cluster)
    result = XrPerf(cluster).run_incast(sources, n_sources, size=size,
                                        messages_per_source=messages,
                                        config=config)
    metrics = {"goodput_gbps": result.goodput_gbps,
               "messages": result.messages}
    for counter in counters:
        metrics[counter] = result.crucial.get(counter, 0)
    return metrics


# ------------------------------------------------------------- ablations
@scenario("fragment-incast")
def fragment_incast(ctx: RunContext) -> Dict[str, Any]:
    """Incast goodput at one fragment size (ablation, Sec. V-C): eight
    256 KB messages per stream.

    params: fragment_bytes.
    """
    return _congested_incast(
        ctx, XrdmaConfig(fragment_bytes=int(ctx.params["fragment_bytes"])),
        size=256 * 1024, messages=8,
        counters=("cnps_sent", "retransmissions"))


@scenario("rpc-latency")
def rpc_latency(ctx: RunContext) -> Dict[str, Any]:
    """Closed-loop 2 KB RPC latency at one small-message threshold
    (ablation, Sec. IV-C).  params: small_msg_size."""
    threshold = int(ctx.params["small_msg_size"])
    rtt_us, eager, _, _ = _closed_loop_rpc(
        ctx, XrdmaConfig(small_msg_size=threshold), 8650, 2048)
    return {
        "rtt_us": rtt_us,
        "recv_ring_bytes_per_channel": (threshold + 64) * 36,
        "eager": eager,
    }


@scenario("window-throughput")
def window_throughput(ctx: RunContext) -> Dict[str, Any]:
    """One-way throughput of 400 2 KB messages at one seq-ack window
    depth (ablation, Sec. V-B).  params: inflight_depth."""
    n_messages, size = 400, 2048
    cluster = ctx.build_cluster(2)
    config = XrdmaConfig(inflight_depth=int(ctx.params["inflight_depth"]))
    client = cluster.xrdma_context(0, config=config)
    server = cluster.xrdma_context(1, config=config)
    server.listen(8660)
    sim = cluster.sim
    received: List[int] = []

    def sink():
        while True:
            yield server.incoming.get()
            received.append(sim.now)

    sim.spawn(sink())

    def producer():
        channel = yield from client.connect(1, 8660)
        for _ in range(n_messages):
            client.send_msg(channel, size)
        # Bounded drain (the close-drain doctrine): a dropped message must
        # end the scenario with a short count, not wedge it forever.
        deadline = sim.now + 60 * SECONDS
        while len(received) < n_messages:
            if sim.now >= deadline:
                break
            yield sim.timeout(50 * MICROS)

    proc = sim.spawn(producer())
    t0 = sim.now
    sim.run_until_event(proc, limit=60 * SECONDS)
    return {
        "throughput_gbps": n_messages * size * 8 / (sim.now - t0),
        "messages": n_messages,
    }


@scenario("mr-registration")
def mr_registration(ctx: RunContext) -> Dict[str, Any]:
    """MR count and alloc latency of 256 4 KB allocations at one arena
    size (ablation, Sec. IV-E).  params: mr_bytes."""
    cluster = ctx.build_cluster(1)
    host = cluster.host(0)
    pd = host.verbs.alloc_pd()
    cache = MemCache(host.verbs, pd, mr_bytes=int(ctx.params["mr_bytes"]))

    def run():
        buffers = []
        for _ in range(256):
            buffer = yield from cache.alloc(4096)
            buffers.append(buffer)
        return buffers

    t0 = cluster.sim.now
    proc = cluster.sim.spawn(run())
    buffers = cluster.sim.run_until_event(proc, limit=60 * SECONDS)
    alloc_us = (cluster.sim.now - t0) / 1000
    for buffer in buffers:
        cache.free(buffer)
    return {"mr_count": cache.mr_count, "alloc_us": alloc_us}


@scenario("traced-rpc")
def traced_rpc(ctx: RunContext) -> Dict[str, Any]:
    """Span-traced closed-loop RPC: the XR-Trace artifact run (Sec. VI-A).

    Both ends run in req-rsp mode with a tracer attached; every sampled
    RPC decomposes into the full span chain, and the run record carries
    the trace rollup plus per-trace lines (``traces.jsonl``).

    params: optional size, iterations, sample_mask.
    """
    params = ctx.params
    size = int(params.get("size", 2048))
    iterations = int(params.get("iterations", 24))
    mask = int(params.get("sample_mask", 1))
    config = XrdmaConfig(req_rsp_mode=True, trace_sample_mask=mask)
    cluster = ctx.build_cluster(2)
    ctx.monitor(cluster)
    client = cluster.xrdma_context(0, config=config)
    server = cluster.xrdma_context(1, config=config)
    client_tracer = ctx.attach_tracer(cluster, client)
    ctx.attach_tracer(cluster, server)
    accepted = server.listen(8670)
    sim = cluster.sim

    def run():
        channel = yield from client.connect(1, 8670)
        server_channel = yield accepted.get()
        server_channel.on_request = \
            lambda msg: server.send_response(msg, 64)
        for _ in range(iterations):
            request = client.send_request(channel, size)
            yield request.response
        # Settle: let trailing piggybacked/standalone acks close the
        # last spans on both sides before we read the records.
        yield sim.timeout(500 * MICROS)

    proc = sim.spawn(run())
    sim.run_until_event(proc, limit=60 * SECONDS)
    totals: Dict[str, int] = {}
    for record in client_tracer.records.values():
        if record.complete:
            for stage, duration in record.spans:
                totals[stage] = totals.get(stage, 0) + duration
    dominant = (max(sorted(totals), key=lambda stage: totals[stage])
                if totals else "")
    # The client's end-to-end latency: every request it sent and saw acked.
    totals_ns = sorted(record.total_ns
                       for record in client_tracer.records.values()
                       if record.complete and record.view == "sender")
    p99 = nearest_rank(totals_ns, 0.99) if totals_ns else 0.0
    summary = ctx.trace_rollup()["summary"]
    return {
        "rpcs": iterations,
        "traces_completed": summary["completed"],
        "traces_incomplete": summary["incomplete"],
        "negative_network_clamped": summary["negative_network_clamped"],
        "client_p99_total_us": round(p99 / 1000, 3),
        "dominant_segment": dominant,
    }


@scenario("ctrl-plane")
def ctrl_plane(ctx: RunContext) -> Dict[str, Any]:
    """Control-plane churn: setup-latency CDFs, cold vs warm caches
    (Sec. VII-C grown into the Swift elastic-control-plane story).

    A client opens ``channels`` connections against one server, keeping
    at most 32 open (older ones close as new ones open —
    the churn that feeds the QP cache).  Every establishment is traced
    end to end with the ``cm_resolve``/``qp_setup``/``handshake``/
    ``qp_to_rts``/``mr_reg``/``recv_prime`` span chain; the metrics are
    the setup-latency CDF plus exact cache-counter accounting.

    params: channels; optional warm (1 = prewarmed QP/MR caches,
    0 = caches disabled, every connect pays full cost), no_pin
    (NP-RDMA-style on-demand paging in the memory cache).
    """
    params = ctx.params
    n_channels = int(params.get("channels", 128))
    warm = bool(int(params.get("warm", 1)))
    concurrency = 32
    no_pin = bool(int(params.get("no_pin", 0)))
    pool = 64 if warm else 0
    client_config = XrdmaConfig(
        trace_sample_mask=1, qp_cache_capacity=pool,
        mr_reg_cache=warm, memcache_no_pin=no_pin)
    server_config = XrdmaConfig(
        qp_cache_capacity=pool, mr_reg_cache=warm,
        memcache_no_pin=no_pin)
    cluster = ctx.build_cluster(2)
    client = cluster.xrdma_context(0, config=client_config)
    server = cluster.xrdma_context(1, config=server_config)
    tracer = ctx.attach_tracer(cluster, client)
    server.listen(8690)
    sim = cluster.sim

    def run():
        if warm:
            prime = min(n_channels, concurrency)
            yield from client.qpcache.prewarm(prime)
            yield from server.qpcache.prewarm(prime)
            # Enough warm arenas for `concurrency` primed channels, so
            # steady-state establishment never registers memory.
            recv_bytes = client.config.small_msg_size + 64
            per_channel = (client.config.inflight_depth
                           + client.config.prepost_slack) * recv_bytes
            arenas = (concurrency * per_channel
                      // client.config.memcache_mr_bytes + 2)
            yield from client.memcache.prewarm(arenas)
            yield from server.memcache.prewarm(arenas)
        open_channels: deque = deque()
        for _ in range(n_channels):
            channel = yield from client.connect(1, 8690)
            open_channels.append(channel)
            if len(open_channels) > concurrency:
                yield from client.close_channel(open_channels.popleft())
        while open_channels:
            yield from client.close_channel(open_channels.popleft())
        # Let the server process the trailing CLOSEs and recycle its QPs.
        yield sim.timeout(10 * MILLIS)

    proc = sim.spawn(run())
    sim.run_until_event(proc, limit=20 * MILLIS * n_channels + 10 * SECONDS)

    setups = [record for record in tracer.records.values()
              if record.view == "setup" and record.complete]
    residual_violations = sum(1 for record in setups if record.residual_ns)
    totals_ns = sorted(record.total_ns for record in setups)

    def span_p50(stage: str) -> float:
        values = sorted(duration for record in setups
                        for name, duration in record.spans if name == stage)
        return round(nearest_rank(values, 0.50) / 1000, 2) if values else 0.0

    metrics: Dict[str, Any] = {
        "channels": n_channels,
        "warm": int(warm),
        "no_pin": int(no_pin),
        "setup_traces": len(setups),
        "setup_residual_violations": residual_violations,
        "qp_setup_p50_us": span_p50("qp_setup"),
        "mr_reg_p50_us": span_p50("mr_reg"),
        "qp_cache_hits": client.qpcache.hits,
        "qp_cache_misses": client.qpcache.misses,
        "qp_cache_recycled": client.qpcache.recycled,
        "qp_cache_destroyed": client.qpcache.destroyed,
        "mr_cache_hits": (client.mr_reg_cache.hits
                          if client.mr_reg_cache is not None else 0),
        "qps_created": cluster.host(0).verbs.qps_created,
        "mrs_registered": cluster.host(0).verbs.mrs_registered,
        "pages_faulted": client.memcache.pages_faulted,
    }
    for pct in (10, 25, 50, 75, 90, 99):
        metrics[f"setup_p{pct}_us"] = (
            round(nearest_rank(totals_ns, pct / 100) / 1000, 1)
            if totals_ns else 0.0)
    return metrics


# ---------------------------------------------------------------- figures
#: Fig. 10 workload presets: label -> (flow_control, size, messages)
FIG10_WORKLOADS: Dict[str, Any] = {
    "128KB": (False, 128 * 1024, 15),
    "128KB-fc": (True, 128 * 1024, 15),
    "64KB": (False, 64 * 1024, 30),
}


@scenario("fig10-incast")
def fig10_incast(ctx: RunContext) -> Dict[str, Any]:
    """Fig. 10: incast with/without X-RDMA flow control.

    params: workload (one of FIG10_WORKLOADS); optional n_sources
    (default 8).
    """
    params = ctx.params
    label = str(params["workload"])
    if label not in FIG10_WORKLOADS:
        raise ValueError(f"unknown fig10 workload {label!r}; "
                         f"choose from {', '.join(FIG10_WORKLOADS)}")
    flow_control, size, messages = FIG10_WORKLOADS[label]
    return _congested_incast(ctx, XrdmaConfig(flow_control=flow_control),
                             size=size, messages=messages,
                             n_sources=int(params.get("n_sources", 8)))


# ------------------------------------------------------------------ smoke
@scenario("smoke-incast")
def smoke_incast(ctx: RunContext) -> Dict[str, Any]:
    """A deliberately tiny incast for pool/CLI tests and ``--quick``
    invariance checks: three sources, six 16 KB messages each — seconds
    of wall time, not minutes.  params: fragment_bytes."""
    cluster = ctx.build_cluster(4)
    config = XrdmaConfig(fragment_bytes=int(ctx.params["fragment_bytes"]))
    result = XrPerf(cluster).run_incast([0, 1, 2], 3, size=16 * 1024,
                                        messages_per_source=6,
                                        mean_gap_ns=40_000, config=config)
    return {
        "goodput_gbps": result.goodput_gbps,
        "messages": result.messages,
        "bytes_moved": result.bytes_moved,
    }


# ----------------------------------------------------------- cluster scale
@scenario("cluster-connect-storm")
def cluster_connect_storm(ctx: RunContext) -> Dict[str, Any]:
    """Full-mesh connect storm at cluster scale, one rack per fleet shard
    (the Fig. 9 shape: every node establishing channels at once).

    The fabric is sized for the whole emulated cluster but only this
    shard's rack gets RNIC stacks, plus one cross-pod gateway host that
    terminates the rack's connects — so the storm's packet-level traffic
    transits ToR, leaf and spine tiers.  The other racks' concurrent
    storms ride flow-aggregate channels converging on the gateway's rack.

    params: n_hosts, rack; optional connects_per_host.
    """
    params = ctx.params
    n_hosts = int(params.get("n_hosts", 1024))
    rack = int(params.get("rack", 0))
    connects = int(params.get("connects_per_host", 8))
    dims = cluster_dims(n_hosts)
    rack_hosts = rack_shard(n_hosts, rack)
    n_racks = n_hosts // RACK_HOSTS
    gateway = remote_peer(n_hosts, dims, rack_hosts[0])
    cluster = ctx.build_cluster(n_hosts,
                                attach_hosts=[*rack_hosts, gateway],
                                **dims)
    sim = cluster.sim
    agg = AggregateTraffic(cluster)
    share = cluster.params.link_bandwidth_bps / n_racks
    for other in range(n_racks):
        src = other * RACK_HOSTS
        if other == rack or src == gateway:
            continue
        agg.add_flow(src, gateway, rate_bps=share)
    agg.flush()

    server = cluster.xrdma_context(gateway)
    accepted = server.listen(8700)

    def acceptor():
        while True:
            channel = yield accepted.get()
            channel.on_request = \
                lambda msg: server.send_response(msg, 64)

    sim.spawn(acceptor())

    def storm(host_id: int):
        client = cluster.xrdma_context(host_id)
        for _ in range(connects):
            channel = yield from client.connect(gateway, 8700)
            request = client.send_request(channel, 256)
            yield request.response
            yield from client.close_channel(channel)

    procs = [sim.spawn(storm(host)) for host in rack_hosts]

    def wait_all():
        for proc in procs:
            yield proc

    waiter = sim.spawn(wait_all())
    sim.run_until_event(waiter, limit=60 * SECONDS)
    background_bytes = agg.settle()
    metrics: Dict[str, Any] = {
        "rack": rack,
        "connects": len(rack_hosts) * connects,
        "storm_ms": round(sim.now / 1e6, 3),
        "spine_tx_bytes": spine_tx_bytes(cluster),
        "background_bytes": round(background_bytes, 1),
        "background_flows": len(agg.flows),
        "pause_frames": cluster.stats.pause_frames,
    }
    metrics.update(fabric_footprint(cluster))
    return metrics


@scenario("cluster-incast")
def cluster_incast(ctx: RunContext) -> Dict[str, Any]:
    """Cluster-wide incast, one rack per fleet shard (the Fig. 10 shape
    scaled out: ~all hosts converging on one sink).

    This shard's rack sends packet-level incast traffic to a cross-pod
    sink; every other host in the emulated cluster converges on the same
    sink as a flow-aggregate channel at its fair share of the sink link.
    The foreground flows therefore serialize into the ~5% residual floor
    of a saturated downlink — the contention regime of the figure —
    while event cost stays proportional to one rack.

    params: n_hosts, rack; optional size, messages.
    """
    params = ctx.params
    n_hosts = int(params.get("n_hosts", 1024))
    rack = int(params.get("rack", 0))
    size = int(params.get("size", 64 * 1024))
    messages = int(params.get("messages", 4))
    dims = cluster_dims(n_hosts)
    rack_hosts = rack_shard(n_hosts, rack)
    sink = remote_peer(n_hosts, dims, rack_hosts[0])
    cluster = ctx.build_cluster(n_hosts, params=congested_params(),
                                attach_hosts=[*rack_hosts, sink],
                                **dims)
    attached = set(rack_hosts) | {sink}
    agg = AggregateTraffic(cluster)
    share = cluster.params.link_bandwidth_bps / n_hosts
    for host in range(n_hosts):
        if host in attached:
            continue
        agg.add_flow(host, sink, rate_bps=share)
    agg.flush()

    perf = XrPerf(cluster)
    config = XrdmaConfig(flow_control=True)
    result = perf.run_incast(rack_hosts, sink, size=size,
                             messages_per_source=messages, config=config)
    background_bytes = agg.settle()
    metrics: Dict[str, Any] = {
        "rack": rack,
        "goodput_gbps": result.goodput_gbps,
        "messages": result.messages,
        "foreground_bytes": result.bytes_moved,
        "background_bytes": round(background_bytes, 1),
        "background_flows": len(agg.flows),
        "spine_tx_bytes": spine_tx_bytes(cluster),
        "pause_frames": result.crucial.get("pause_frames", 0),
        "cnps_sent": result.crucial.get("cnps_sent", 0),
        "retransmissions": result.crucial.get("retransmissions", 0),
    }
    metrics.update(fabric_footprint(cluster))
    return metrics
