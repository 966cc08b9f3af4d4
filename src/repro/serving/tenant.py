"""Tenants and the multi-tenant serving harness (XR-Serve).

A :class:`Tenant` is one customer of the shared fabric: an open-loop
arrival process, a mix of traffic classes (small eager RPCs, large
rendezvous transfers), one X-RDMA context per source host, and a channel
-selection policy.  Tenants never wait for each other — every request is
fired on the arrival schedule and its completion is observed by a
detached waiter, so a struggling server shows up as an offered-vs-
achieved gap and a latency tail, never as a quietly throttled workload.

Channel-selection policies (the Queueing-middleware axis):

* ``round-robin`` — every request cycles over all of the tenant's
  channels, so elephants and mice interleave on every queue;
* ``sharded`` — channels are partitioned per traffic class (class *i*
  takes channels ``i, i+k, i+2k, ...``), so bulk transfers cannot
  head-of-line-block the latency-sensitive class at the middleware
  queue.

:class:`ServingHarness` wires tenants against shared serving endpoints,
runs the whole open-loop phase, bounds the completion drain, and closes
each tenant's :class:`~repro.serving.windows.WindowedRecorder` at the
configured horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Tuple)

from repro.analysis.stats import percentile
from repro.serving.arrivals import make_arrivals
from repro.serving.windows import SloTarget, WindowedRecorder
from repro.sim.process import ProcessGenerator
from repro.sim.timeunits import MILLIS, SECONDS
from repro.workloads.flows import mice_size
from repro.xrdma.channel import ChannelBroken, ChannelState, XrdmaChannel
from repro.xrdma.config import XrdmaConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.monitor import Monitor
    from repro.cluster import Cluster
    from repro.sim.rng import RngStream
    from repro.xrdma.context import XrdmaContext
    from repro.xrdma.message import XrdmaMessage

#: the port every serving context listens on
_SERVING_PORT = 8800

__all__ = ["TrafficClass", "RPC_CLASS", "BULK_CLASS", "TenantSpec",
           "Tenant", "ServingHarness"]


@dataclass(frozen=True)
class TrafficClass:
    """One request shape inside a tenant's mix.

    ``weight`` is the relative pick probability at each arrival.  Sizes
    come from ``size_fn`` when set (a ``rng -> bytes`` callable, same
    contract as :class:`repro.workloads.flows.FlowSpec`), else
    ``fixed_bytes``.  Requests above the context's ``small_msg_size``
    take the rendezvous path — that is what makes a class "large", not
    anything in this dataclass.
    """

    name: str
    weight: float = 1.0
    size_fn: Optional[Callable[["RngStream"], int]] = None
    fixed_bytes: int = 2048
    response_bytes: int = 64

    def draw_bytes(self, rng: "RngStream") -> int:
        if self.size_fn is not None:
            return int(self.size_fn(rng))
        return self.fixed_bytes


def _bulk_size(rng: "RngStream") -> int:
    """Rendezvous-sized transfer: 64 KB – 512 KB, log-uniform."""
    return int(2 ** rng.uniform(16, 19))


#: Latency-sensitive class: mice-sized eager RPCs (64 B – 4 KB).
RPC_CLASS = TrafficClass(name="rpc", weight=1.0, size_fn=mice_size)
#: Throughput class: large rendezvous transfers (64 KB – 512 KB).
BULK_CLASS = TrafficClass(name="bulk", weight=1.0, size_fn=_bulk_size)


@dataclass(frozen=True)
class TenantSpec:
    """Declarative description of one tenant.

    ``hosts`` lists the source hosts (several = the tenant fans in to
    the server — the incast shape); ``rate_per_s`` is the open-loop
    arrival rate *per source host*.  ``arrival`` is one of ``poisson`` /
    ``mmpp`` / ``diurnal`` (see :func:`repro.serving.arrivals
    .make_arrivals`).
    """

    name: str
    hosts: Tuple[int, ...]
    server_host: int
    rate_per_s: float = 10_000.0
    arrival: str = "poisson"
    burst_factor: float = 4.0
    classes: Tuple[TrafficClass, ...] = (RPC_CLASS,)
    n_channels: int = 2
    policy: str = "round-robin"
    slo: SloTarget = SloTarget()

    def __post_init__(self) -> None:
        if not self.hosts:
            raise ValueError(f"tenant {self.name}: no source hosts")
        if self.server_host in self.hosts:
            raise ValueError(f"tenant {self.name}: server host "
                             f"{self.server_host} is also a source")
        if not self.classes:
            raise ValueError(f"tenant {self.name}: no traffic classes")
        if self.n_channels < 1:
            raise ValueError(f"tenant {self.name}: n_channels must be >= 1")
        if self.policy not in ("round-robin", "sharded"):
            raise ValueError(f"tenant {self.name}: unknown policy "
                             f"{self.policy!r}")
        total = sum(cls.weight for cls in self.classes)
        if total <= 0:
            raise ValueError(f"tenant {self.name}: class weights sum to 0")


class Tenant:
    """A running tenant: contexts, channels, drivers and its recorder."""

    def __init__(self, spec: TenantSpec, harness: "ServingHarness",
                 config: Optional[XrdmaConfig] = None) -> None:
        self.spec = spec
        self.harness = harness
        cluster = harness.cluster
        self.contexts: List["XrdmaContext"] = [
            cluster.xrdma_context(host, config=config,
                                  name=f"serve-{spec.name}-h{host}")
            for host in spec.hosts]
        self.recorder = WindowedRecorder(harness.window_ns)
        self.outstanding = 0
        self.sent_by_class: Dict[str, int] = {
            cls.name: 0 for cls in spec.classes}
        #: completed latencies split by class — the pooled window p99
        #: mixes mice and elephants, and the policy comparison (does
        #: sharding protect the RPC class?) needs them apart
        self.class_latencies: Dict[str, List[int]] = {
            cls.name: [] for cls in spec.classes}
        self._channels: Dict[int, List[XrdmaChannel]] = {}
        self._rr: Dict[int, int] = {}
        self._rngs: List["RngStream"] = [
            cluster.rng.stream(f"serving.{spec.name}.h{host}")
            for host in spec.hosts]

    # ------------------------------------------------------------ mechanics
    def _pick_class(self, rng: "RngStream") -> int:
        classes = self.spec.classes
        if len(classes) == 1:
            return 0
        total = sum(cls.weight for cls in classes)
        draw = rng.uniform(0.0, total)
        acc = 0.0
        for index, cls in enumerate(classes):
            acc += cls.weight
            if draw < acc:
                return index
        return len(classes) - 1

    def _select_channel(self, host_index: int,
                        class_index: int) -> XrdmaChannel:
        channels = self._channels[host_index]
        n_classes = len(self.spec.classes)
        if self.spec.policy == "sharded" and n_classes > 1:
            shard = channels[class_index % len(channels)::n_classes]
            if not shard:               # fewer channels than classes
                shard = channels
        else:
            shard = channels
        turn = self._rr.get(host_index, 0)
        self._rr[host_index] = turn + 1
        return shard[turn % len(shard)]

    def _driver(self, host_index: int) -> ProcessGenerator:
        """Open-loop source on one host: connect, then fire on schedule."""
        ctx = self.contexts[host_index]
        sim = ctx.sim
        rng = self._rngs[host_index]
        spec = self.spec
        arrivals = make_arrivals(spec.arrival, rng, spec.rate_per_s,
                                 duration_ns=self.harness.duration_ns,
                                 burst_factor=spec.burst_factor)
        # Concurrent channel establishment — serial cold setups are
        # several ms each and would eat whole warmup windows.
        channels: List[Optional[XrdmaChannel]] = [None] * spec.n_channels

        def connect_one(slot: int) -> ProcessGenerator:
            channels[slot] = yield from ctx.connect(spec.server_host,
                                                    _SERVING_PORT)

        connects = [sim.spawn(connect_one(slot),
                              name=f"serve-{spec.name}-conn{slot}")
                    for slot in range(spec.n_channels)]
        for proc in connects:
            yield proc
        self._channels[host_index] = [channel for channel in channels
                                      if channel is not None]
        if not self._channels[host_index]:
            return
        start = self.harness.start_ns
        end = start + self.harness.duration_ns
        while True:
            gap = arrivals.next_gap_ns(sim.now)
            yield sim.timeout(gap)
            if sim.now >= end:
                return
            class_index = self._pick_class(rng)
            cls = spec.classes[class_index]
            size = cls.draw_bytes(rng)
            channel = self._select_channel(host_index, class_index)
            self.recorder.on_offered(sim.now - start)
            try:
                msg = ctx.send_request(channel, size,
                                       payload=cls.response_bytes)
            except ChannelBroken:
                self.recorder.on_error()
                continue
            self.sent_by_class[cls.name] += 1
            self.outstanding += 1
            sim.spawn(self._await_response(ctx, msg, cls.name),
                      name=f"serve-{spec.name}-wait")

    def _await_response(self, ctx: "XrdmaContext", msg: "XrdmaMessage",
                        class_name: str) -> ProcessGenerator:
        try:
            yield msg.response
        except ChannelBroken:
            self.outstanding -= 1
            self.recorder.on_error()
            return
        self.outstanding -= 1
        now = ctx.sim.now
        latency = now - msg.created_at
        self.class_latencies[class_name].append(latency)
        self.recorder.on_completed(now - self.harness.start_ns, latency)

    def shutdown(self) -> ProcessGenerator:
        """Generator: orderly close of every channel still open."""
        for host_index, channels in sorted(self._channels.items()):
            ctx = self.contexts[host_index]
            for channel in channels:
                if channel.state is ChannelState.READY:
                    yield from ctx.close_channel(channel)

    # ------------------------------------------------------------- reporting
    def summary(self) -> Dict[str, Any]:
        out = self.recorder.summary(self.spec.slo)
        out["outstanding"] = self.outstanding
        for cls in self.spec.classes:
            out[f"sent_{cls.name}"] = self.sent_by_class[cls.name]
            values = sorted(self.class_latencies[cls.name])
            if values:
                out[f"p50_{cls.name}_us"] = round(
                    percentile(values, 0.50) / 1000, 2)
                out[f"p99_{cls.name}_us"] = round(
                    percentile(values, 0.99) / 1000, 2)
        return out

    def window_rows(self) -> List[Dict[str, Any]]:
        rows = []
        for row in self.recorder.rows(self.spec.slo):
            stamped = {"tenant": self.spec.name}
            stamped.update(row)
            rows.append(stamped)
        return rows


class ServingHarness:
    """Runs many tenants against shared serving endpoints on one cluster.

    The harness owns the serving side: one X-RDMA context per distinct
    ``server_host``, with an acceptor that answers every REQUEST with a
    response of the size the request asked for (the ``payload`` field —
    the per-class ``response_bytes``).
    """

    def __init__(self, cluster: "Cluster", duration_ns: int,
                 window_ns: int) -> None:
        if duration_ns <= 0:
            raise ValueError("duration_ns must be positive")
        if window_ns <= 0 or window_ns > duration_ns:
            raise ValueError("window_ns must be in (0, duration_ns]")
        self.cluster = cluster
        self.duration_ns = duration_ns
        self.window_ns = window_ns
        self.tenants: List[Tenant] = []
        self.servers: Dict[int, "XrdmaContext"] = {}
        self.start_ns = 0
        self._ran = False

    # -------------------------------------------------------------- assembly
    def server_context(self, host_id: int,
                       config: Optional[XrdmaConfig] = None
                       ) -> "XrdmaContext":
        """The (shared) serving context on ``host_id``, listening."""
        ctx = self.servers.get(host_id)
        if ctx is None:
            ctx = self.cluster.xrdma_context(host_id, config=config,
                                             name=f"serve-srv-h{host_id}")
            accepted = ctx.listen(_SERVING_PORT)
            self.cluster.sim.spawn(self._acceptor(ctx, accepted),
                                   name=f"serve-accept-h{host_id}")
            self.servers[host_id] = ctx
        return ctx

    @staticmethod
    def _acceptor(ctx: "XrdmaContext", accepted) -> ProcessGenerator:
        def respond(msg: "XrdmaMessage") -> None:
            size = msg.payload if isinstance(msg.payload, int) else 0
            ctx.send_response(msg, size if size > 0 else 64)

        while True:
            channel = yield accepted.get()
            channel.on_request = respond

    def add_tenant(self, spec: TenantSpec,
                   config: Optional[XrdmaConfig] = None,
                   server_config: Optional[XrdmaConfig] = None) -> Tenant:
        """Register a tenant (and its server endpoint, if new)."""
        self.server_context(spec.server_host, config=server_config)
        tenant = Tenant(spec, self, config=config)
        self.tenants.append(tenant)
        return tenant

    # ------------------------------------------------------------- execution
    def run(self, limit_ns: Optional[int] = None,
            monitor: Optional["Monitor"] = None) -> None:
        """Drive the whole serving phase to completion (plus drain)."""
        if self._ran:
            raise RuntimeError("harness already ran")
        if not self.tenants:
            raise RuntimeError("no tenants registered")
        self._ran = True
        sim = self.cluster.sim
        self.start_ns = sim.now
        procs = [sim.spawn(tenant._driver(index),
                           name=f"serve-{tenant.spec.name}-d{index}")
                 for tenant in self.tenants
                 for index in range(len(tenant.spec.hosts))]

        def conduct() -> ProcessGenerator:
            for proc in procs:
                yield proc
            # Bounded completion drain (one more run duration): open
            # loop means requests may still be in flight when the
            # schedule ends; stragglers land in cooldown windows, and
            # anything past the drain deadline stays visible as
            # `outstanding`.
            deadline = sim.now + self.duration_ns
            step = max(1, self.window_ns // 4)
            while any(tenant.outstanding for tenant in self.tenants):
                if sim.now >= deadline:
                    break
                yield sim.timeout(step)
            for tenant in self.tenants:
                yield from tenant.shutdown()
            yield sim.timeout(2 * MILLIS)   # let trailing CLOSEs settle

        waiter = sim.spawn(conduct())
        limit = (limit_ns if limit_ns is not None
                 else 4 * self.duration_ns + 10 * SECONDS)
        sim.run_until_event(waiter, limit=limit)
        for tenant in self.tenants:
            tenant.recorder.close(self.duration_ns)
        if monitor is not None:
            self._publish_series(monitor)

    def _publish_series(self, monitor: "Monitor") -> None:
        """Per-window achieved/offered rates as monitor series."""
        for tenant in self.tenants:
            name = tenant.spec.name
            for row in tenant.recorder.rows():
                at = self.start_ns + (row["window"] + 1) * self.window_ns
                monitor.gauge(f"serving.{name}.offered_rps", at,
                              row["offered_rps"])
                monitor.gauge(f"serving.{name}.achieved_rps", at,
                              row["achieved_rps"])

    # ------------------------------------------------------------- reporting
    def window_rows(self) -> List[Dict[str, Any]]:
        """Every tenant's window table, tenant-stamped, in spec order."""
        rows: List[Dict[str, Any]] = []
        for tenant in self.tenants:
            rows.extend(tenant.window_rows())
        return rows
