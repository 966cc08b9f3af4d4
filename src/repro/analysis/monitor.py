"""The centralized monitor (Sec. VI-B).

Registered contexts are sampled on a cadence; the monitor accumulates the
time series behind the production figures — QP counts, IOPS, bandwidth,
memory-cache occupancy (Figs. 3, 11, 12) — plus the fabric's "crucial
indexes": CNPs, PFC pauses, queue drops.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.invariants import current as _invariant_registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.stats import NetStats
    from repro.sim.engine import Simulator
    from repro.xrdma.context import XrdmaContext

Sample = Tuple[int, float]


class Monitor:
    """Aggregates per-context and fabric-wide series."""

    def __init__(self, sim: "Simulator", stats: "NetStats",
                 sample_interval_ns: int = 10_000_000):
        self.sim = sim
        self.stats = stats
        self.sample_interval_ns = sample_interval_ns
        self.series: Dict[str, List[Sample]] = defaultdict(list)
        self._contexts: List["XrdmaContext"] = []
        self._last_sample: Dict[int, int] = {}

    # ----------------------------------------------------------- registration
    def attach(self, ctx: "XrdmaContext") -> None:
        ctx.monitor = self
        self._contexts.append(ctx)

    # --------------------------------------------------------------- sampling
    def gauge(self, name: str, now_ns: int, value: float) -> None:
        """Record one externally-computed sample into a named series.

        Subsystems that already do their own windowing (e.g. the XR-Serve
        harness) publish through here so their series sit next to the
        sampled ones in rollups.
        """
        self.series[name].append((now_ns, float(value)))

    def maybe_sample(self, ctx: "XrdmaContext") -> None:
        """Called by the context loop; rate-limited per context."""
        last = self._last_sample.get(ctx.ctx_id, -self.sample_interval_ns)
        if self.sim.now - last < self.sample_interval_ns:
            return
        self._last_sample[ctx.ctx_id] = self.sim.now
        self.sample_context(ctx)

    def sample_context(self, ctx: "XrdmaContext") -> None:
        now = self.sim.now
        prefix = f"ctx{ctx.ctx_id}"
        snapshot = ctx.stat_snapshot()
        for key in ("channels", "mem_occupied", "mem_in_use", "mr_count",
                    "incoming_backlog"):
            self.series[f"{prefix}.{key}"].append((now, snapshot[key]))
        tx = sum(ch.stats["tx_msgs"] for ch in ctx.channels.values())
        rx = sum(ch.stats["rx_msgs"] for ch in ctx.channels.values())
        tx_bytes = sum(ch.stats["tx_bytes"] for ch in ctx.channels.values())
        rx_bytes = sum(ch.stats["rx_bytes"] for ch in ctx.channels.values())
        self.series[f"{prefix}.tx_msgs"].append((now, tx))
        self.series[f"{prefix}.rx_msgs"].append((now, rx))
        self.series[f"{prefix}.tx_bytes"].append((now, tx_bytes))
        self.series[f"{prefix}.rx_bytes"].append((now, rx_bytes))
        qp_count = len(ctx.channels) + len(ctx.qpcache)
        self.series[f"{prefix}.qp_count"].append((now, qp_count))
        # Count-mode invariant checking (Sec. VI-C): violations surface as
        # a crucial index in the production time series.
        registry = _invariant_registry()
        if registry is not None:
            self.series[f"{prefix}.invariant_violations"].append(
                (now, registry.total))

    def sample_fabric(self) -> None:
        """Record the cluster-wide crucial indexes."""
        now = self.sim.now
        snapshot = self.stats.snapshot()
        for key in ("cnps_sent", "pause_frames", "drops", "ecn_marks",
                    "rnr_naks", "data_bytes_delivered", "retransmissions"):
            self.series[f"net.{key}"].append((now, snapshot[key]))

    def start_fabric_sampler(self, interval_ns: Optional[int] = None):
        """Spawn a background process sampling the fabric on a cadence."""
        interval = interval_ns or self.sample_interval_ns

        def loop():
            while True:
                self.sample_fabric()
                yield self.sim.timeout(interval)

        return self.sim.spawn(loop(), name="monitor:fabric")

    # ------------------------------------------------------------- reporting
    def values(self, name: str) -> List[float]:
        return [value for _, value in self.series[name]]

    def rate_per_second(self, name: str) -> List[float]:
        """Per-interval increments scaled to a per-second rate."""
        samples = self.series[name]
        out = []
        for (t0, v0), (t1, v1) in zip(samples, samples[1:]):
            dt_s = (t1 - t0) / 1e9 or 1e-9
            out.append((v1 - v0) / dt_s)
        return out
