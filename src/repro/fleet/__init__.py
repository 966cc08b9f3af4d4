"""XR-Fleet: parallel experiment orchestration (the control plane for sweeps).

The paper's evidence is a fleet artifact — >4000 servers, figure sweeps,
ablation grids, failure drills — and the hard part of operating RDMA at
that scale is the orchestration plane, not the data path.  This package
is the reproduction's equivalent layer for its *simulated* fleet: it fans
independent seeded simulations out across a supervised multiprocessing
worker pool and folds the results back together reproducibly.

Pipeline::

    ExperimentSpec --expand--> RunUnits --plan--> canonical order
        --FleetPool--> JSONL run records --aggregate--> aggregate.json

* :mod:`repro.fleet.spec` — declarative experiment description (scenario
  name + seed list + parameter grid) and its expansion into
  :class:`~repro.fleet.spec.RunUnit` work units with stable,
  worker-count-independent identities.
* :mod:`repro.fleet.planner` — canonical total order over run units.
* :mod:`repro.fleet.runner` — executes one unit: seeded cluster
  factory, TieAudit schedule digest, invariant counting, monitor
  rollups, metric sanitation.
* :mod:`repro.fleet.pool` — the supervised worker pool: each run
  executes once, with a per-run wall-clock kill deadline, crash
  isolation and graceful cancellation.  The sweep always completes, and
  a run that misbehaved has one reasoned record.
* :mod:`repro.fleet.store` — JSONL run records plus canonical-bytes
  JSON artifacts.
* :mod:`repro.fleet.aggregate` — percentile tables and the
  machine-readable aggregate; byte-identical for any ``--jobs``.
* :mod:`repro.fleet.scenarios` / :mod:`repro.fleet.experiments` — the
  library of paper scenarios and the built-in specs (ablation grids,
  Fig. 10 sweep).
* :mod:`repro.fleet.drills` — fault-injection scenarios exercising the
  supervisor itself (crash, raise, runaway, hang).

CLI: ``python -m repro.tools.xr_fleet`` (run / status).
"""

from repro.fleet.aggregate import aggregate_records
from repro.fleet.planner import plan
from repro.fleet.pool import FleetPool, SweepSummary
from repro.fleet.runner import RunContext, execute_unit, run_scenario_inline
from repro.fleet.spec import ExperimentSpec, RunUnit
from repro.fleet.store import ResultStore, canonical_json

__all__ = [
    "ExperimentSpec",
    "FleetPool",
    "ResultStore",
    "RunContext",
    "RunUnit",
    "SweepSummary",
    "aggregate_records",
    "canonical_json",
    "execute_unit",
    "plan",
    "run_scenario_inline",
]
