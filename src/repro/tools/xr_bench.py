"""The two single-layer probes the ``bench/`` ledger reports.

``bench/run.py --trace 1`` runs these next to each workload so a ledger
says how fast the bare engine and the MemCache free list are on their
own (``sim.timer_churn_events_per_s``, ``xrdma.memcache_churn_ops_per_s``;
bench/README.md).  Event counts repeat exactly for the fixed inputs; only
wall time is machine-dependent.  This is not a command-line tool: the
performance record is the ledger (``python bench/run.py``,
``python -m bench.compare``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.cluster import build_cluster
from repro.sim.engine import Simulator
from repro.xrdma.memcache import MemCache


def _wall() -> float:
    """Host wall clock for measuring *our own* speed.

    This is the one place wall time is legitimate: nothing simulated ever
    sees it, it only divides event counts.
    """
    return time.perf_counter()  # xr-lint: disable=wall-clock


@dataclass
class BenchResult:
    """One probe outcome: simulated work per host second."""

    events: int                  #: simulation events fired
    wall_s: float                #: host seconds for the measured region
    extra: Dict[str, Any] = field(default_factory=dict)  #: probe-specific

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0


def bench_timer_churn(quick: bool) -> BenchResult:
    """Bare engine: many processes churning timeouts, nothing else."""
    n_procs = 50 if quick else 200
    n_rounds = 60 if quick else 300
    sim = Simulator()

    def churner(index: int):
        # Deterministic pseudo-random delays without an RNG dependency.
        for round_no in range(n_rounds):
            yield sim.timeout((index * 7919 + round_no * 104729) % 997 + 1)

    for index in range(n_procs):
        sim.spawn(churner(index))
    t0 = _wall()
    sim.run()
    wall = _wall() - t0
    return BenchResult(sim._sequence, wall)


def bench_memcache_churn(quick: bool) -> BenchResult:
    """MemCache alloc/free at production-scale fragmentation.

    Thousands of live buffers in mixed sizes — the regime the paper's
    middleware actually runs in (one cache serving every channel of a
    context): small buffers shred the arenas into holes that every large
    allocation's first-fit scan must skip past.  ``ops_per_sec`` times
    the whole path — the ``alloc`` generator, buffer bookkeeping and the
    free list together — not the free list alone.
    """
    n_ops = 6_000 if quick else 30_000
    live_target = 600 if quick else 2_500
    cluster = build_cluster(1, seed=5)
    host = cluster.host(0)
    pd = host.verbs.alloc_pd()
    cache = MemCache(host.verbs, pd)
    sizes = [64, 128, 256, 512, 64 * 1024]

    def churn():
        live: List[Any] = []
        state = 12345
        for _ in range(n_ops):
            state = (state * 1103515245 + 12721) % (1 << 31)  # LCG, no RNG dep
            if live and (len(live) > live_target or state % 100 < 40):
                cache.free(live.pop(state % len(live)))
            else:
                buffer = yield from cache.alloc(sizes[state % len(sizes)])
                live.append(buffer)
        for buffer in live:
            cache.free(buffer)

    t0 = _wall()
    proc = cluster.sim.spawn(churn())
    cluster.sim.run_until_event(proc)
    wall = _wall() - t0
    return BenchResult(cluster.sim._sequence, wall,
                       {"ops_per_sec": round(n_ops / wall) if wall else 0})
