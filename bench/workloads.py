"""The four benchmark workloads, driven through the repo's public API.

Each workload function runs one *pass*: it builds a fresh seeded cluster,
establishes channels, drives a fixed amount of simulated work, drains, and
leaves what it saw on its :class:`Pass`.  :func:`run_pass` wraps that in
host-time phase spans (``pass`` -> ``setup`` -> ``build``/``connect``,
``steady``, ``drain``) and folds the result into a :class:`PassResult`.

Everything is read from outside the program: ``build_cluster``, context /
channel / harness / app constructors, ``Simulator.run*``, and the counters
those objects publish (``NetStats.snapshot``, ``channel.stats``,
``MemCache`` / ``QpCache`` / ``VerbsContext`` counters, ``Tracer.records``).
The one private read is ``Simulator._sequence`` (events scheduled) — the
engine has no public event counter and ``repro.tools.xr_bench`` reads the
same field.

Why these four, and how each was sized, is in ``bench/README.md``.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.cluster import Cluster, build_cluster
from repro.analysis import ClockSync, InvariantRegistry, Monitor, Tracer
from repro.analysis import invariants, verify_context
from repro.analysis.stats import nearest_rank
from repro.apps import BlockServer, EssdFrontend, PanguDeployment
from repro.serving import (BULK_CLASS, RPC_CLASS, ServingHarness, SloTarget,
                           TenantSpec, TrafficClass)
from repro.sim import MILLIS, SECONDS
from repro.sim.params import congested_params
from repro.workloads.flows import FlowSpec, open_loop_sender
from repro.xrdma import XrdmaConfig

PORT = 9700
#: simulated-time bound on any single drive; hitting it fails the pass
LIMIT_NS = 60 * SECONDS

#: per-workload sizes.  ``full`` is what the timed passes run, ``quick``
#: the smoke/warm-up scale, ``setup`` the few operations a set-up sample
#: runs after building and connecting.
SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "rpc-pingpong": {
        "full": {"round_trips": 5000},
        "quick": {"round_trips": 600},
        "setup": {"round_trips": 50},
    },
    "incast-bulk": {
        "full": {"per_source": 150},
        "quick": {"per_source": 12},
        "setup": {"per_source": 2},
    },
    "serving-mix": {
        "full": {"duration_ms": 150.0, "window_ms": 10.0},
        "quick": {"duration_ms": 30.0, "window_ms": 5.0},
        "setup": {"duration_ms": 6.0, "window_ms": 2.0},
    },
    "storage-pangu": {
        "full": {"first_ios": 160, "joined_ios": 100, "join_at_ms": 10.0},
        "quick": {"first_ios": 24, "joined_ios": 12, "join_at_ms": 1.5},
        "setup": {"first_ios": 4, "joined_ios": 2, "join_at_ms": 0.2},
    },
}

#: workloads whose instrumented passes also run XR-Trace (req-rsp mode,
#: every message sampled); the other two move bulk data, where the
#: per-message span chain is not what bounds the result
TRACED = ("rpc-pingpong", "serving-mix")

_NET_KEYS = ("segments_sent", "segments_delivered", "drops", "ecn_marks",
             "pause_frames", "resume_frames", "cnps_sent", "retransmissions",
             "rnr_naks")
_CHANNEL_KEYS = ("tx_msgs", "acks_sent", "nops_sent", "keepalives_sent",
                 "rendezvous_reads")
#: XR-Trace stages reported as ``xrdma.seg.<stage>.p99_us`` (``wire`` is
#: the per-message sum of its ``wire_hop<N>`` spans)
SEGMENT_STAGES = ("window_wait", "src_alloc", "flowctl_queue", "post_send",
                  "nic_tx", "wire", "rx_nic", "rx_poll", "rendezvous_read",
                  "rx_deliver", "ack_return")
#: serving.* / apps.* counters default to 0 on workloads without them
_APP_COUNTERS = ("serving.offered", "serving.completed", "serving.errors",
                 "serving.outstanding_end", "serving.slo_attainment",
                 "serving.generator_late_us", "apps.ios_completed",
                 "apps.qp_count_before_join", "apps.qp_count_after_join")


def tail_quantile(samples: int) -> float:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for q in (0.99, 0.95):
        if samples * (1 - q) >= 10:
            return q
    return 0.90


def _quantile_us(ordered_ns: List[int], q: float) -> float:
    """Nearest-rank quantile in µs; 0.0 when a set-up-scale pass was too
    short to complete anything in its stable windows."""
    return nearest_rank(ordered_ns, q) / 1000 if ordered_ns else 0.0


@dataclass
class PassResult:
    """What one pass produced.  Every ``sim_*`` field and counter repeats
    exactly for a fixed (workload, seed, scale); only ``wall_s``,
    ``cpu_s`` and ``spans`` are host time."""

    wall_s: float
    cpu_s: float
    spans: List[Dict[str, Any]]
    attempted: int
    completed: int
    events: int
    sim_ns: int
    app_bytes: int
    latency_samples: int
    tail_percentile: float
    sim_p50_us: float
    sim_tail_us: float
    counters: Dict[str, float]
    checks: Dict[str, bool]
    digest: str = ""
    seg_p99_us: Dict[str, float] = field(default_factory=dict)
    invariant_violations: int = 0

    @property
    def failed(self) -> int:
        """Operations that errored, were refused, or did not complete by
        the drain deadline."""
        return max(0, self.attempted - self.completed)

    @property
    def sim_goodput_gbps(self) -> float:
        return self.app_bytes * 8 / self.sim_ns

    @property
    def sim_ops_per_s(self) -> float:
        return self.completed * SECONDS / self.sim_ns

    def fingerprint(self) -> Dict[str, Any]:
        """Everything that must be identical across passes of one run."""
        return {"events": self.events, "sim_ns": self.sim_ns,
                "attempted": self.attempted, "completed": self.completed,
                "app_bytes": self.app_bytes,
                "sim_p50_us": self.sim_p50_us,
                "sim_tail_us": self.sim_tail_us, "counters": self.counters}


class Pass:
    """Scratch state of one pass: spans, cluster, contexts, outcomes."""

    def __init__(self, workload: str, seed: int, scale: str,
                 instrument: bool) -> None:
        self.seed = seed
        self.scale = SCALES[workload][scale]
        #: instrumented pass: TieAudit on, invariant registry counting,
        #: XR-Trace on the TRACED workloads
        self.instrument = instrument
        self.tracing = instrument and workload in TRACED
        self.spans: List[Dict[str, Any]] = []
        self._open: List[Dict[str, Any]] = []
        self._t0 = time.perf_counter()
        self.cluster: Optional[Cluster] = None
        self.contexts: List[Any] = []
        self.tracers: List[Tracer] = []
        self._clocksync: Optional[ClockSync] = None
        #: channels alive at the end of the steady phase (closing drops
        #: them from ``ctx.channels``; their ``stats`` dicts stay readable)
        self.channels: List[Any] = []
        self.memcache_occupied = 0
        # outcomes, set by the workload
        self.attempted = 0
        self.completed = 0
        self.app_bytes = 0
        self.sim_ns = 0
        self.latencies_ns: List[int] = []
        self.counters: Dict[str, float] = dict.fromkeys(_APP_COUNTERS, 0)
        self.checks: Dict[str, bool] = {}

    # ------------------------------------------------------------- spans
    def begin(self, name: str) -> None:
        record = {"name": name,
                  "parent": self._open[-1]["name"] if self._open else None,
                  "start_s": time.perf_counter() - self._t0}
        self.spans.append(record)
        self._open.append(record)

    def end(self) -> None:
        self._open.pop()["end_s"] = time.perf_counter() - self._t0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    # ---------------------------------------------------------- assembly
    def build(self, n_hosts: int, params=None) -> Cluster:
        self.cluster = build_cluster(n_hosts, params=params, seed=self.seed)
        if self.instrument:
            self.cluster.sim.enable_tie_audit()
        return self.cluster

    def config(self) -> Optional[XrdmaConfig]:
        """Context config: library defaults, plus XR-Trace when tracing."""
        if self.tracing:
            return XrdmaConfig(req_rsp_mode=True, trace_sample_mask=1)
        return None

    def adopt(self, ctx: Any) -> Any:
        """Register a context for counters, deep checks and tracing."""
        self.contexts.append(ctx)
        if self.tracing:
            if self._clocksync is None:
                self._clocksync = ClockSync(self.cluster.rng)
            self.tracers.append(Tracer(ctx, self._clocksync))
        return ctx

    def context(self, host_id: int, name: str) -> Any:
        return self.adopt(self.cluster.xrdma_context(
            host_id, config=self.config(), name=name))

    def drive(self, generator) -> Any:
        """Run one process to completion; returns its value."""
        sim = self.cluster.sim
        return sim.run_until_event(sim.spawn(generator),
                                   limit=sim.now + LIMIT_NS)

    def mark_steady_end(self) -> None:
        """Capture what closing channels would drop."""
        self.channels = [channel for ctx in self.contexts
                         for channel in ctx.channels.values()]
        self.memcache_occupied = sum(ctx.memcache.occupied_bytes
                                     for ctx in self.contexts)

    # ------------------------------------------------------------ result
    def _counters(self) -> Dict[str, float]:
        counters = dict(self.counters)
        stats = self.cluster.stats.snapshot()
        for key in _NET_KEYS:
            counters[f"net.{key}"] = stats[key]
        for key in _CHANNEL_KEYS:
            counters[f"xrdma.{key}"] = sum(ch.stats[key]
                                           for ch in self.channels)
        counters["xrdma.queued_peak"] = max(
            (ch.stats["queued_peak"] for ch in self.channels), default=0)
        caches = [ctx.memcache for ctx in self.contexts]
        counters["xrdma.memcache_grows"] = sum(c.grow_count for c in caches)
        counters["xrdma.memcache_shrinks"] = sum(c.shrink_count
                                                 for c in caches)
        # Sampled at the end of the steady phase; arenas only leave through
        # shrink(), so this is the peak whenever memcache_shrinks is 0.
        counters["xrdma.memcache_occupied_peak_bytes"] = \
            self.memcache_occupied
        counters["ctrlplane.qp_cache_hits"] = sum(
            ctx.qpcache.hits for ctx in self.contexts)
        counters["ctrlplane.qp_cache_misses"] = sum(
            ctx.qpcache.misses for ctx in self.contexts)
        counters["verbs.qps_created"] = sum(
            host.verbs.qps_created for host in self.cluster.hosts)
        counters["verbs.mrs_registered"] = sum(
            host.verbs.mrs_registered for host in self.cluster.hosts)
        return counters

    def _segment_p99_us(self) -> Dict[str, float]:
        per_stage: Dict[str, List[int]] = {}
        for tracer in self.tracers:
            for record in tracer.records.values():
                if not record.complete or record.view != "sender":
                    continue
                wire = 0
                for stage, duration in record.spans:
                    if stage.startswith("wire_hop"):
                        wire += duration
                    else:
                        per_stage.setdefault(stage, []).append(duration)
                per_stage.setdefault("wire", []).append(wire)
        return {stage: _quantile_us(sorted(per_stage.get(stage, ())), 0.99)
                for stage in SEGMENT_STAGES}

    def result(self, wall_s: float, cpu_s: float,
               registry: InvariantRegistry) -> PassResult:
        latencies = sorted(self.latencies_ns)
        tail = tail_quantile(len(latencies))
        for ctx in self.contexts:
            verify_context(ctx, registry)
        audit = self.cluster.sim.tie_audit
        return PassResult(
            wall_s=wall_s, cpu_s=cpu_s, spans=self.spans,
            attempted=self.attempted, completed=self.completed,
            events=self.cluster.sim._sequence,
            sim_ns=self.sim_ns, app_bytes=self.app_bytes,
            latency_samples=len(latencies), tail_percentile=tail * 100,
            sim_p50_us=_quantile_us(latencies, 0.50),
            sim_tail_us=_quantile_us(latencies, tail),
            counters=self._counters(), checks=self.checks,
            digest=audit.digest() if audit is not None else "",
            seg_p99_us=self._segment_p99_us() if self.tracing else {},
            invariant_violations=registry.total)


# ============================================================== workloads
def _echo(ctx):
    """Server loop: answer every request with 64 bytes."""
    while True:
        msg = yield ctx.incoming.get()
        ctx.send_response(msg, 64)


def rpc_pingpong(p: Pass) -> None:
    """Closed loop, 1 client, 1 channel, 2 hosts under one ToR; eager
    requests of 64–1024 B (log-uniform, median 256 B, drawn from the
    seed), 64-B replies."""
    count = p.scale["round_trips"]
    with p.span("setup"):
        with p.span("build"):
            cluster = p.build(2)
            client = p.context(0, "bench-client")
            server = p.context(1, "bench-server")
            server.listen(PORT)
            cluster.sim.spawn(_echo(server))
            rng = cluster.rng.stream("bench.request-bytes")
            sizes = [int(2 ** rng.uniform(6, 10)) for _ in range(count)]
        with p.span("connect"):
            channel = p.drive(client.connect(1, PORT))
    sim = cluster.sim
    rtts = p.latencies_ns

    def requests():
        for size in sizes:
            t0 = sim.now
            request = client.send_request(channel, size)
            yield request.response
            rtts.append(sim.now - t0)

    with p.span("steady"):
        start = sim.now
        p.drive(requests())
        p.sim_ns = sim.now - start
        p.mark_steady_end()
    with p.span("drain"):
        p.drive(client.close_channel(channel))
    p.attempted = count
    p.completed = len(rtts)
    p.app_bytes = sum(sizes) + 64 * len(rtts)
    one_way_p50_us = nearest_rank(sorted(rtts), 0.5) / 2000
    # Paper shape (Fig. 7): small-message one-way latency of a few µs
    # (paper 5.60 µs; this model 5.3 µs at 256 B).
    p.checks["one-way p50 in 4-8 us"] = 4.0 <= one_way_p50_us <= 8.0


def incast_bulk(p: Pass) -> None:
    """Closed-pipe, 7 sources -> 1 sink on shallow-buffer switches: every
    source queues all its one-way rendezvous messages back to back
    (192–320 KB each, mean 256 KB, drawn from the seed) and the seq-ack
    window paces them.  Latency is taken at the sink, from a message's
    announce arriving to its delivery to the application."""
    per_source = p.scale["per_source"]
    sources, sink = list(range(7)), 7
    with p.span("setup"):
        with p.span("build"):
            cluster = p.build(8, params=congested_params())
            sim = cluster.sim
            sink_ctx = p.context(sink, "bench-sink")
            sink_ctx.listen(PORT)
            senders = [p.context(src, f"bench-src{src}") for src in sources]
        with p.span("connect"):
            connects = [sim.spawn(ctx.connect(sink, PORT))
                        for ctx in senders]
            sim.run_until_event(sim.all_of(connects),
                                limit=sim.now + LIMIT_NS)
            channels = [proc.value for proc in connects]
    latencies = p.latencies_ns
    delivered = [0, 0]                  # bytes, time of the last delivery

    def consume():
        while True:
            msg = yield sink_ctx.incoming.get()
            latencies.append(msg.delivered_at - msg.created_at)
            delivered[0] += msg.payload_size
            delivered[1] = msg.delivered_at

    def source(ctx, channel):
        spec = FlowSpec(
            src=ctx.nic.host_id, dst=sink, count=per_source,
            size_fn=lambda rng: rng.randint(192 * 1024, 320 * 1024 + 1))
        rng = cluster.rng.stream(f"bench.bulk-bytes.{spec.src}")
        sent_log: List[Any] = []
        yield from open_loop_sender(ctx, channel, spec, rng, sent_log)
        yield sent_log[-1][2].acked

    with p.span("steady"):
        start = sim.now
        sim.spawn(consume())
        procs = [sim.spawn(source(ctx, channel))
                 for ctx, channel in zip(senders, channels)]
        sim.run_until_event(sim.all_of(procs), limit=sim.now + LIMIT_NS)
        # Goodput stops at the last delivery: the final cumulative ack can
        # trail it by up to one deadlock-check interval.
        p.sim_ns = delivered[1] - start
        p.mark_steady_end()
    with p.span("drain"):
        for ctx, channel in zip(senders, channels):
            p.drive(ctx.close_channel(channel))
    p.attempted = per_source * len(sources)
    p.completed = len(latencies)
    p.app_bytes = delivered[0]
    stats = cluster.stats
    # Paper shape (Sec. V / Fig. 10): flow control keeps incast lossless
    # and RNR-free.
    p.checks["net.drops == 0"] = stats.drops == 0
    p.checks["net.rnr_naks == 0"] = stats.rnr_naks == 0


def _serving(cluster: Cluster, rate_per_s: float, duration_ms: float,
             window_ms: float, config: Optional[XrdmaConfig] = None):
    """The ``serving-mix`` fleet scenario's body: 2 source hosts -> 1
    server, 80% rpc / 20% bulk, 4 sharded channels, p99 <= 800 µs."""
    harness = ServingHarness(cluster, duration_ns=int(duration_ms * MILLIS),
                             window_ns=int(window_ms * MILLIS))
    classes = (
        TrafficClass(name="rpc", weight=0.8, size_fn=RPC_CLASS.size_fn),
        TrafficClass(name="bulk", weight=0.2, size_fn=BULK_CLASS.size_fn))
    spec = TenantSpec(name="mix", hosts=(0, 1), server_host=3,
                      rate_per_s=rate_per_s, arrival="poisson",
                      classes=classes, n_channels=4, policy="sharded",
                      slo=SloTarget(latency_us=800.0))
    tenant = harness.add_tenant(spec, config=config, server_config=config)
    return harness, tenant


def serving_mix(p: Pass) -> None:
    """Open loop, Poisson, 2 sources x 10 000 req/s; arrivals are drawn in
    simulated time from the seed, never from completions."""
    with p.span("setup"):
        with p.span("build"):
            cluster = p.build(4)
            harness, tenant = _serving(cluster, 10_000.0,
                                       p.scale["duration_ms"],
                                       p.scale["window_ms"], p.config())
            for ctx in tenant.contexts:
                p.adopt(ctx)
            p.adopt(harness.servers[3])

    def offered_load_ends() -> None:
        p.mark_steady_end()
        p.end()
        p.begin("drain")

    # The harness connects, offers load, drains and closes in one call, so
    # ``steady`` here includes channel establishment; the split into
    # ``drain`` is taken when simulated time reaches the offered horizon.
    p.begin("steady")
    cluster.sim.call_at(harness.duration_ns, offered_load_ends)
    harness.run()
    p.end()
    recorder = tenant.recorder
    p.latencies_ns = [latency for index in recorder.stable_indices()
                      for latency in recorder.latencies.get(index, ())]
    p.attempted = recorder.total_offered
    p.completed = recorder.total_completed
    p.sim_ns = harness.duration_ns
    client_channels = [ch for ch in p.channels if ch.ctx in tenant.contexts]
    p.app_bytes = sum(ch.stats["tx_bytes"] + ch.stats["rx_bytes"]
                      for ch in client_channels)
    summary = tenant.summary()
    p.counters.update({
        "serving.offered": recorder.total_offered,
        "serving.completed": recorder.total_completed,
        "serving.errors": recorder.errors,
        "serving.outstanding_end": tenant.outstanding,
        "serving.slo_attainment": summary["slo_attainment"],
    })
    # serving.generator_late_us stays 0: the tenant driver stamps
    # msg.created_at at the scheduled arrival instant in simulated time,
    # so the generator cannot run late and there is nothing to measure.
    p.checks["nothing outstanding after drain"] = tenant.outstanding == 0


def serving_slo_rate(seed: int, quick: bool = False) -> float:
    """Highest rung (req/s per source) of a fixed ladder whose stable-window
    p99 stays <= 800 µs with nothing outstanding, on 60-ms runs (20 ms at
    the quick scale).

    Bisects the ladder (at most three runs), which assumes the verdict is
    monotone in the rate; 0.0 means even the lowest rung missed.
    """
    ladder = (10_000.0, 15_000.0, 20_000.0, 25_000.0, 30_000.0)
    duration_ms, window_ms = (20.0, 5.0) if quick else (60.0, 10.0)

    def holds(rate: float) -> bool:
        harness, tenant = _serving(build_cluster(4, seed=seed), rate,
                                   duration_ms, window_ms)
        harness.run()
        summary = tenant.summary()
        return (summary["p99_us"] <= 800.0 and summary["errors"] == 0
                and tenant.outstanding == 0)

    low, high = -1, len(ladder)         # ladder[low] holds, ladder[high] not
    while high - low > 1:
        mid = (low + high) // 2
        if holds(ladder[mid]):
            low = mid
        else:
            high = mid
    return ladder[low] if low >= 0 else 0.0


def storage_pangu(p: Pass) -> None:
    """Closed loop, the Fig. 11 shape: 12 hosts, 2 block + 4 chunk servers,
    3 replicas, 2 ESSD front-ends at queue depth 4 writing 96–160 KB
    blocks (mean 128 KB, drawn from the seed) under a Monitor; mid-run 2
    more block servers join, re-mesh, and 2 more front-ends start."""
    queue_depth = 4
    first_ios, joined_ios = p.scale["first_ios"], p.scale["joined_ios"]
    latencies = p.latencies_ns
    written = [0]

    def frontend(host_id: int, block_host: int) -> EssdFrontend:
        fe = EssdFrontend(cluster, host_id=host_id,
                          block_server_host=block_host)
        p.adopt(fe.ctx)
        return fe

    def closed_loop(fe: EssdFrontend, count: int):
        # EssdFrontend.run_closed_loop with a size per I/O: the front-end
        # class writes one fixed io_bytes, and the inputs here are seeded.
        rng = cluster.rng.stream(f"bench.io-bytes.{fe.host_id}")
        inflight: deque = deque()
        for _ in range(count):
            if len(inflight) >= queue_depth:
                yield from complete(inflight.popleft())
            size = rng.randint(96 * 1024, 160 * 1024 + 1)
            inflight.append((sim.now, size, fe.ctx.send_request(
                fe.channel, size, payload={"op": "frontend_write"})))
        while inflight:
            yield from complete(inflight.popleft())

    def complete(issued):
        t0, size, request = issued
        response = yield request.response
        if response.payload["ok"]:          # a refused write stays failed
            latencies.append(sim.now - t0)
            written[0] += size

    with p.span("setup"):
        with p.span("build"):
            cluster = p.build(12)
            sim = cluster.sim
            monitor = Monitor(sim, cluster.stats,
                              sample_interval_ns=5 * MILLIS)
            deployment = PanguDeployment.build(
                cluster, block_hosts=[0, 1], chunk_hosts=[4, 5, 6, 7],
                replicas=3)
            for server in (deployment.block_servers
                           + deployment.chunk_servers):
                p.adopt(server.ctx)
            frontends = [frontend(8, 0), frontend(9, 1)]
        with p.span("connect"):
            deployment.establish_mesh()
            for fe in frontends:
                p.drive(fe.connect())
            for block_server in deployment.block_servers:
                monitor.attach(block_server.ctx)
            monitor.start_fabric_sampler(5 * MILLIS)

    def join(block_host: int, frontend_host: int):
        # Mesh before the front-end starts: a block server with fewer
        # than `replicas` chunk channels refuses writes.
        block_server = BlockServer(cluster, block_host, replicas=3)
        p.adopt(block_server.ctx)
        deployment.block_servers.append(block_server)
        monitor.attach(block_server.ctx)
        yield from block_server.connect_mesh(
            [cs.host_id for cs in deployment.chunk_servers])
        fe = frontend(frontend_host, block_host)
        yield from fe.connect()
        yield from closed_loop(fe, joined_ios)

    with p.span("steady"):
        start = sim.now
        procs = [sim.spawn(closed_loop(fe, first_ios)) for fe in frontends]
        sim.run(until=start + int(p.scale["join_at_ms"] * MILLIS))
        qp_before = deployment.qp_count()
        procs += [sim.spawn(join(2, 10)), sim.spawn(join(3, 11))]
        sim.run_until_event(sim.all_of(procs), limit=sim.now + LIMIT_NS)
        p.sim_ns = sim.now - start
        p.mark_steady_end()
    with p.span("drain"):
        sim.run(until=sim.now + 1 * MILLIS)
    p.attempted = 2 * first_ios + 2 * joined_ios
    p.completed = len(latencies)
    p.app_bytes = written[0]
    p.counters.update({
        "apps.ios_completed": p.completed,
        "apps.qp_count_before_join": qp_before,
        "apps.qp_count_after_join": deployment.qp_count(),
    })
    chunks = sum(cs.chunks_written for cs in deployment.chunk_servers)
    stored = sum(cs.bytes_written for cs in deployment.chunk_servers)
    p.checks["every I/O stored on 3 chunk servers"] = \
        chunks == 3 * p.completed and stored == 3 * written[0]
    p.checks["QP count rises with the join"] = \
        p.counters["apps.qp_count_after_join"] > qp_before


WORKLOADS: Dict[str, Callable[[Pass], None]] = {
    "rpc-pingpong": rpc_pingpong,
    "incast-bulk": incast_bulk,
    "serving-mix": serving_mix,
    "storage-pangu": storage_pangu,
}


def run_pass(workload: str, seed: int, scale: str,
             instrument: bool = False) -> PassResult:
    """One pass of ``workload`` on a fresh cluster.

    Uninstrumented passes are what users run: no TieAudit, no tracer, no
    inline invariant hooks.  The structural deep checks still run against
    every context at quiescence, after the clock stops.
    """
    gc.collect()
    registry = InvariantRegistry(mode="count")
    if instrument:
        invariants.install(registry)
    p = Pass(workload, seed, scale, instrument)
    cpu0 = time.process_time()
    try:
        with p.span("pass"):
            WORKLOADS[workload](p)
    finally:
        if instrument:
            invariants.uninstall()
    wall_s = p.spans[0]["end_s"] - p.spans[0]["start_s"]
    return p.result(wall_s, time.process_time() - cpu0, registry)
