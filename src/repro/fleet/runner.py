"""Executing one run unit: the in-worker half of the fleet.

:func:`execute_unit` is what a pool worker calls for each task.  It wires
the determinism and self-checking machinery around an arbitrary scenario
callable:

* a :class:`RunContext` whose ``build_cluster`` seeds every cluster from
  the unit's seed and enables the TieAudit schedule digest,
* a count-mode invariant registry (unless the hosting process already
  installed one — a test running a scenario inline keeps its own),
* engine runaway guards (``max_events`` plus a wall budget slightly under
  the supervisor's kill deadline, so most runaways die as recorded
  failures instead of SIGKILLs),
* metric sanitation — a scenario returning non-JSON metrics is a failed
  run, not a crashed sweep.

The resulting record is a plain dict ready for the JSONL store.  Nothing
in it except the explicitly wall-clock fields (``wall_s``) depends on
host timing, which is what the aggregator's byte-identity rests on.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.analysis import invariants
from repro.analysis.clocksync import ClockSync
from repro.analysis.monitor import Monitor
from repro.analysis.tracing import (Tracer, analyze, merged_trace_records,
                                    tracer_totals)
from repro.cluster import Cluster, build_cluster
from repro.sim.engine import Simulator
from repro.sim.params import SimParams

__all__ = ["RunContext", "ScenarioFn", "execute_unit", "resolve_scenario",
           "run_record"]

ScenarioFn = Callable[["RunContext"], Optional[Dict[str, Any]]]

#: headroom between the in-engine wall guard and the supervisor's kill
#: deadline: the guard should fire first so the run records a reasoned
#: failure; the kill is the backstop for scenarios stuck outside the
#: engine loop entirely.
GUARD_HEADROOM = 0.75


def _wall() -> float:
    """Host wall clock for ``wall_s`` fields and the pool's deadlines;
    never observed by any simulation, and excluded from jobs-invariant
    output."""
    return time.monotonic()  # xr-lint: disable=host-call


class RunContext:
    """What a scenario callable receives: parameters, seed, and factories.

    Scenarios must create clusters through :meth:`build_cluster` (never
    :func:`repro.cluster.build_cluster` directly) so the run's seed,
    schedule digest, and runaway guards are applied uniformly.
    """

    def __init__(self, params: Dict[str, Any], seed: int,
                 max_events: Optional[int] = None,
                 wall_timeout_s: Optional[float] = None) -> None:
        self.params = params
        self.seed = seed
        self._max_events = max_events
        self._wall_timeout_s = wall_timeout_s
        self._sims: List[Simulator] = []
        self._monitors: List[Monitor] = []
        self._tracers: List[Tracer] = []
        self._window_records: List[Dict[str, Any]] = []
        #: one shared ClockSync per cluster (identity-matched list, not an
        #: id()-keyed dict, so iteration order never depends on addresses)
        self._clocksyncs: List[Any] = []

    # ------------------------------------------------------------ factories
    def build_cluster(self, n_hosts: int = 4,
                      params: Optional[SimParams] = None,
                      attach_hosts: Optional[Iterable[int]] = None,
                      **dims: int) -> Cluster:
        """A seeded, audited, guarded cluster for this run.

        ``attach_hosts`` passes through to
        :func:`repro.cluster.build_cluster` for the cluster-scale
        scenarios, which size the fabric for the whole emulated cluster
        but attach RNIC stacks only for their shard's rack.
        """
        cluster = build_cluster(n_hosts, params=params, seed=self.seed,
                                attach_hosts=attach_hosts, **dims)
        cluster.sim.enable_tie_audit()
        if self._max_events is not None or self._wall_timeout_s is not None:
            cluster.sim.set_guards(max_events=self._max_events,
                                   wall_timeout_s=self._wall_timeout_s)
        self._sims.append(cluster.sim)
        return cluster

    def monitor(self, cluster: Cluster) -> Monitor:
        """Attach a fabric monitor (the default 10 ms sample interval)
        whose series are rolled into the record.

        Spawns the background fabric sampler — safe under
        ``run_until_event``/bounded ``run(until=...)``, which is how all
        fleet scenarios drive their simulations.
        """
        mon = Monitor(cluster.sim, cluster.stats)
        mon.start_fabric_sampler()
        self._monitors.append(mon)
        return mon

    def attach_tracer(self, cluster: Cluster, xrdma_ctx: Any,
                      tenant: str = "") -> Tracer:
        """Attach an XR-Trace tracer to one context; tracers on the same
        cluster share one ClockSync (network decomposition needs both ends
        on the same offset table).  Trace records flow into the run record
        via :meth:`trace_rollup` / :meth:`trace_records`.  ``tenant`` tags
        every record the tracer creates (serving scenarios use it for
        per-tenant critical-path attribution)."""
        sync: Optional[ClockSync] = None
        for owner, existing in self._clocksyncs:
            if owner is cluster:
                sync = existing
                break
        if sync is None:
            sync = ClockSync(cluster.rng)
            self._clocksyncs.append((cluster, sync))
        tracer = Tracer(xrdma_ctx, sync, tenant=tenant)
        self._tracers.append(tracer)
        return tracer

    def record_windows(self, rows: Iterable[Dict[str, Any]]) -> None:
        """Stash per-window SLO rows (XR-Serve) for the run record.

        Rows land in the record's ``windows`` key, which the store splits
        into the sweep's ``windows.jsonl`` artifact — exactly the
        ``traces`` treatment, and like traces they are excluded from the
        jobs-invariant aggregate."""
        self._window_records.extend(rows)

    # ------------------------------------------------------------ collection
    def schedule_digest(self) -> str:
        """The run's schedule digest (joined when multiple clusters)."""
        digests = [sim.tie_audit.digest() for sim in self._sims
                   if sim.tie_audit is not None]
        if not digests:
            return ""
        if len(digests) == 1:
            return digests[0]
        return hashlib.sha256("\n".join(digests).encode()).hexdigest()

    def events_fired(self) -> int:
        return sum(sim._sequence for sim in self._sims)

    def tie_anomalies(self) -> int:
        return sum(sim.tie_audit.anomalies for sim in self._sims
                   if sim.tie_audit is not None)

    def monitor_rollup(self) -> Dict[str, Dict[str, float]]:
        """Per-series rollup (sample count / last / peak), sim-time only."""
        rollup: Dict[str, Dict[str, float]] = {}
        for mon in self._monitors:
            for name in sorted(mon.series):
                values = mon.values(name)
                if not values:
                    continue
                rollup[name] = {
                    "samples": len(values),
                    "last": values[-1],
                    "peak": max(values),
                }
        return rollup

    def trace_rollup(self) -> Dict[str, Any]:
        """The run's XR-Trace report ({} when no tracer is attached):
        :func:`analyze` over :meth:`trace_records`, with the tracers'
        clamp and suppressed-mark totals as meta and no slowest list —
        the keys and per-segment numbers ``xr_trace --json`` prints for
        the run's lines of ``traces.jsonl``."""
        if not self._tracers:
            return {}
        return analyze(tracer_totals(self._tracers), self.trace_records(),
                       slowest=0)

    def trace_records(self) -> List[Dict[str, Any]]:
        """Every trace, one dict per trace id (sender view preferred)."""
        return merged_trace_records(self._tracers)

    def window_records(self) -> List[Dict[str, Any]]:
        """Per-window rows stashed via :meth:`record_windows`."""
        return list(self._window_records)


# --------------------------------------------------------------- resolution
def resolve_scenario(name: str) -> ScenarioFn:
    """Look up a scenario by registry name.

    Importing :mod:`repro.fleet.scenarios` / :mod:`repro.fleet.drills`
    populates the registry, so workers (including spawn-context ones that
    share no interpreter state) resolve purely from the task's string.
    """
    from repro.fleet import (drills, figures,  # noqa: F401  (registration)
                             protocol, scenarios, serving)  # noqa: F401
    fn = scenarios.SCENARIOS.get(name)
    if fn is None:
        raise KeyError(
            f"unknown scenario {name!r}; registered: "
            f"{', '.join(sorted(scenarios.SCENARIOS))}")
    return fn


# ---------------------------------------------------------------- execution
def run_record(task: Dict[str, Any], status: str,
               reason: str) -> Dict[str, Any]:
    """The one shape of a run record, with nothing measured yet.

    :func:`execute_unit` fills in what its run measured; the pool stores
    it as is for a run that left no record of its own (``crashed``,
    ``timeout``, ``cancelled``).
    """
    return {
        "run_id": task["run_id"],
        "experiment": task["experiment"],
        "scenario": task["scenario"],
        "params": dict(task["params"]),
        "seed": task["seed"],
        "status": status,
        "reason": reason,
        "metrics": {},
        "digest": "",
        "events": 0,
        "tie_anomalies": 0,
        "invariant_violations": 0,
        "monitor": {},
        "wall_s": 0.0,
    }


def execute_unit(task: Dict[str, Any]) -> Dict[str, Any]:
    """Run one task dict (see :meth:`RunUnit.as_task`) to a record dict.

    Never raises for scenario-level failures — those become
    ``status="failed"`` records; only defects in the fleet itself (or
    process death, which the supervisor handles) escape.
    """
    timeout_s = task.get("timeout_s")
    wall_guard = (None if timeout_s is None
                  else max(0.1, float(timeout_s) * GUARD_HEADROOM))
    ctx = RunContext(params=dict(task["params"]), seed=int(task["seed"]),
                     max_events=task.get("max_events"),
                     wall_timeout_s=wall_guard)
    registry = invariants.current()
    owns_registry = registry is None
    if owns_registry:
        registry = invariants.install(mode="count")
    violations_before = registry.total
    status, reason = "ok", ""
    metrics: Dict[str, Any] = {}
    t0 = _wall()
    try:
        metrics = resolve_scenario(task["scenario"])(ctx) or {}
        # Non-serializable metrics are a scenario bug; record it as a
        # failed run so the sweep (and the store) keep going.
        json.dumps(metrics)
    except (TypeError, ValueError) as exc:
        status, reason = "failed", f"bad metrics: {exc}"
        metrics = {}
    except Exception as exc:  # xr-lint: disable=swallowed-error
        # Fault-isolation boundary: *any* scenario failure — including
        # SimulationError and InvariantError — must surface as a recorded
        # failed run with its reason, never abort the sweep.
        status = "failed"
        tail = traceback.format_exc(limit=3).strip().splitlines()[-1]
        reason = f"{type(exc).__name__}: {exc} [{tail}]"
        metrics = {}
    finally:
        violations = registry.total - violations_before
        if owns_registry:
            invariants.uninstall()
    record = run_record(task, status, reason)
    record.update(metrics=metrics, digest=ctx.schedule_digest(),
                  events=ctx.events_fired(), tie_anomalies=ctx.tie_anomalies(),
                  invariant_violations=violations,
                  monitor=ctx.monitor_rollup(),
                  wall_s=round(_wall() - t0, 4))
    trace = ctx.trace_rollup()
    if trace:
        # Only traced scenarios grow these keys, so untraced sweeps keep
        # byte-identical records (and aggregates) with older ones.
        record["trace"] = trace
        record["traces"] = ctx.trace_records()
    windows = ctx.window_records()
    if windows:
        # Same split treatment as traces: the store peels this off into
        # windows.jsonl; non-serving sweeps never grow the key.
        record["windows"] = windows
    return record

