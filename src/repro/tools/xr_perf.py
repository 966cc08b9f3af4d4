"""XR-Perf: the benchmark and stress driver (Sec. VI-B).

XR-Perf drives the N→1 incast flow model — open-loop senders, closed-pipe
or Poisson-paced, into one sink — and reports goodput together with the
fabric's crucial indexes, which is how the flow-control experiments
(Fig. 10) are driven.  Closed-loop latency runs use
:func:`repro.workloads.flows.request_loop` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Set

from repro.sim.timeunits import MILLIS, SECONDS
from repro.workloads.flows import FlowSpec, open_loop_sender

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.xrdma.context import XrdmaContext

PERF_PORT = 9980


@dataclass
class PerfResult:
    """One XR-Perf run's outcome."""

    name: str
    duration_ns: int = 0
    messages: int = 0
    bytes_moved: int = 0
    crucial: Dict[str, int] = field(default_factory=dict)

    @property
    def goodput_gbps(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.bytes_moved * 8 / self.duration_ns


class XrPerf:
    """Drives workloads between contexts it creates (or is handed)."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.sim = cluster.sim
        self._contexts: Dict[int, "XrdmaContext"] = {}
        self._sinks: Set[int] = set()       # hosts whose context drains
        # Per-instance, not class-level: a class counter would survive
        # across drivers in one process, giving the Nth XrPerf different
        # RNG stream names than a fresh one under the same root seed.
        self._sender_seq = 0

    def context(self, host_id: int, config=None) -> "XrdmaContext":
        ctx = self._contexts.get(host_id)
        if ctx is None:
            ctx = self.cluster.xrdma_context(host_id, config=config,
                                             name=f"xrperf-h{host_id}")
            ctx.listen(PERF_PORT)
            self._contexts[host_id] = ctx
        return ctx

    def _crucial_snapshot(self) -> Dict[str, int]:
        return self.cluster.stats.snapshot()

    @staticmethod
    def _crucial_delta(before: Dict[str, int],
                       after: Dict[str, int]) -> Dict[str, int]:
        return {key: after[key] - before[key] for key in after}

    # ------------------------------------------------------------- scenarios
    def run_incast(self, sources: List[int], sink: int, size: int,
                   messages_per_source: int, mean_gap_ns: int = 0,
                   config=None) -> PerfResult:
        """N→1 incast of open-loop senders (the Fig. 10 scenario)."""
        sink_ctx = self.context(sink, config=config)
        self._install_sink(sink_ctx)
        result = PerfResult(name=f"incast-{len(sources)}to1-{size}B")
        before = self._crucial_snapshot()
        t0 = self.sim.now
        procs = []
        for src in sources:
            ctx = self.context(src, config=config)
            spec = FlowSpec(src=src, dst=sink, fixed_size=size,
                            mean_gap_ns=mean_gap_ns,
                            count=messages_per_source)
            procs.append(self.sim.spawn(
                self._incast_sender(ctx, sink, spec),
                name=f"xrperf:incast{src}"))
        done = self.sim.all_of(procs)
        self.sim.run_until_event(done, limit=self.sim.now + 600 * SECONDS)
        result.duration_ns = self.sim.now - t0
        # Let control-plane tails (acks, CQEs) drain before reading counters.
        self.sim.run(until=self.sim.now + 20 * MILLIS)
        # Goodput counts *application* bytes only — retransmissions are
        # waste, not work (they show up in result.crucial instead).
        result.messages = sum((p.value or (0, 0))[0] for p in procs)
        result.bytes_moved = sum((p.value or (0, 0))[1] for p in procs)
        result.crucial = self._crucial_delta(before, self._crucial_snapshot())
        return result

    def _incast_sender(self, ctx, sink, spec):
        channel = yield from ctx.connect(sink, PERF_PORT)
        self._sender_seq += 1
        rng = self.cluster.rng.stream(
            f"xrperf:{spec.src}->{spec.dst}#{self._sender_seq}")
        sent, sent_bytes = yield from open_loop_sender(ctx, channel, spec,
                                                       rng)
        # Wait for everything to be consumed before declaring done.
        from repro.xrdma.channel import ChannelState
        while channel.state is ChannelState.READY and (
                channel.window.in_flight > 0 or channel.pending_send):
            yield self.sim.timeout(100_000)
        return sent, sent_bytes

    # ------------------------------------------------------------- plumbing
    def _install_sink(self, ctx: "XrdmaContext") -> None:
        """Consume every message delivered to ``ctx`` (once per host)."""
        if ctx.nic.host_id in self._sinks:
            return
        self._sinks.add(ctx.nic.host_id)

        def loop():
            while True:
                yield ctx.incoming.get()

        self.sim.spawn(loop(), name=f"xrperf:sink{ctx.nic.host_id}")
