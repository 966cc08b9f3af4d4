"""XR-Fleet CLI: run, inspect, and aggregate experiment sweeps.

::

    python -m repro.tools.xr_fleet run --spec ablation-grid --jobs 4
    python -m repro.tools.xr_fleet run --spec all --quick --jobs 2 \\
        --out fleet-out --json
    python -m repro.tools.xr_fleet status --out fleet-out
    python -m repro.tools.xr_fleet aggregate --out fleet-out --json

Verbs:

* ``run`` — expand the chosen spec sets, execute them on the supervised
  pool, write ``runs.jsonl`` + ``aggregate.json`` + ``manifest.json``
  under ``--out`` (default ``fleet-out/``).  Exit 0 if every run ended
  ``ok``, 1 if any run failed/crashed/timed out, 130 on interrupt.
* ``status`` — progress + retry/failure accounting of a (possibly
  running or interrupted) sweep directory.
* ``aggregate`` — (re)fold ``runs.jsonl`` into ``aggregate.json`` and
  print the tables; with ``--json``, print the aggregate itself.

The aggregate is byte-identical for any ``--jobs`` value — see
DESIGN.md ("Fleet") for the methodology.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.fleet.aggregate import aggregate_records, aggregate_tables
from repro.fleet.experiments import spec_names, specs_for
from repro.fleet.planner import plan
from repro.fleet.pool import FleetPool
from repro.fleet.spec import ExperimentSpec, RunUnit
from repro.fleet.store import ResultStore

DEFAULT_OUT = "fleet-out"


def _rebuild_units(store: ResultStore) -> List[RunUnit]:
    """Re-expand the persisted plan so status/aggregate see planned-but-
    missing runs (cancelled sweeps) as well as recorded ones."""
    payload = store.load_plan()
    # plan.json holds ExperimentSpec.as_dict() verbatim: field for field.
    units = plan([ExperimentSpec(**entry)
                  for entry in payload.get("specs", [])])
    wanted = set(payload.get("units", []))
    return [unit for unit in units if unit.run_id in wanted]


def _attempt_counts(records: List[Dict[str, Any]]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for record in records:
        run_id = record.get("run_id", "")
        counts[run_id] = counts.get(run_id, 0) + 1
    return counts


def _write_aggregate(store: ResultStore,
                     units: List[RunUnit]) -> Dict[str, Any]:
    records = store.load_records()
    aggregate = aggregate_records(units, store.terminal_records(),
                                  _attempt_counts(records))
    store.write_aggregate(aggregate)
    return aggregate


# ------------------------------------------------------------------- verbs
def cmd_run(args: argparse.Namespace) -> int:
    try:
        specs = specs_for(args.spec or ["all"], quick=args.quick)
    except KeyError as exc:
        print(f"xr-fleet: {exc.args[0]}", file=sys.stderr)
        return 2
    units = plan(specs)
    store = ResultStore(Path(args.out))
    store.begin(specs, units)
    pool = FleetPool(jobs=args.jobs)
    if not args.json:
        print(f"xr-fleet: {len(units)} runs, {len(specs)} experiments, "
              f"jobs={args.jobs}")
    try:
        summary = pool.run(units, store)
    finally:
        # Even a crashed sweep leaves an aggregate over what finished.
        store.close()
        aggregate = _write_aggregate(store, units)
    manifest = {
        "jobs": args.jobs,
        "quick": args.quick,
        "specs": sorted(spec.name for spec in specs),
        "runs_planned": len(units),
        "summary": summary.as_dict(),
        "totals": aggregate["totals"],
    }
    store.write_manifest(manifest)
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
    else:
        print(aggregate_tables(aggregate))
        print(f"xr-fleet: wrote {store.aggregate_path} "
              f"(wall {summary.wall_s:.1f}s, retries {summary.retries}, "
              f"respawns {summary.workers_respawned})")
    if summary.interrupted:
        return 130
    totals = aggregate["totals"]
    clean = totals["ok"] == totals["runs"]
    return 0 if clean else 1


def cmd_status(args: argparse.Namespace) -> int:
    store = ResultStore(Path(args.out))
    try:
        units = _rebuild_units(store)
    except (OSError, ValueError) as exc:
        print(f"xr-fleet: {args.out}: not a sweep directory ({exc})",
              file=sys.stderr)
        return 2
    records = store.load_records()
    terminal = store.terminal_records()
    attempts = _attempt_counts(records)
    by_status: Dict[str, int] = {}
    for record in terminal.values():
        status = record.get("status", "?")
        by_status[status] = by_status.get(status, 0) + 1
    pending = [unit.run_id for unit in units
               if unit.run_id not in terminal]
    payload = {
        "planned": len(units),
        "terminal": len(terminal),
        "pending": len(pending),
        "attempts": sum(attempts.values()),
        "retried_runs": sum(1 for n in attempts.values() if n > 1),
        "by_status": dict(sorted(by_status.items())),
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"xr-fleet status: {args.out}")
    print(f"  planned {payload['planned']}, terminal {payload['terminal']}, "
          f"pending {payload['pending']}")
    print(f"  attempts {payload['attempts']} "
          f"(runs retried: {payload['retried_runs']})")
    for status, count in payload["by_status"].items():
        print(f"    {status:<10} {count}")
    if pending and len(pending) <= 10:
        for run_id in pending:
            print(f"    pending: {run_id}")
    return 0


def cmd_aggregate(args: argparse.Namespace) -> int:
    store = ResultStore(Path(args.out))
    try:
        units = _rebuild_units(store)
    except (OSError, ValueError) as exc:
        print(f"xr-fleet: {args.out}: not a sweep directory ({exc})",
              file=sys.stderr)
        return 2
    aggregate = _write_aggregate(store, units)
    if args.json:
        sys.stdout.write(json.dumps(aggregate, indent=2, sort_keys=True)
                         + "\n")
    else:
        print(aggregate_tables(aggregate))
        print(f"xr-fleet: wrote {store.aggregate_path}")
    return 0


# -------------------------------------------------------------------- main
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="xr_fleet",
        description="X-RDMA fleet: parallel experiment orchestration")
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="execute a sweep")
    run_p.add_argument("--spec", action="append", metavar="NAME",
                       help=f"spec set(s) to run: {', '.join(spec_names())} "
                            f"or 'all' (default)")
    run_p.add_argument("--jobs", type=int, default=2, metavar="N",
                       help="worker processes (default 2)")
    run_p.add_argument("--quick", action="store_true",
                       help="trimmed grids / single seed (CI smoke scale)")
    run_p.add_argument("--out", default=DEFAULT_OUT, metavar="DIR",
                       help=f"sweep directory (default {DEFAULT_OUT}/)")
    run_p.add_argument("--json", action="store_true",
                       help="print the manifest as JSON instead of tables")
    run_p.set_defaults(fn=cmd_run)

    status_p = sub.add_parser("status", help="inspect a sweep directory")
    status_p.add_argument("--out", default=DEFAULT_OUT, metavar="DIR")
    status_p.add_argument("--json", action="store_true")
    status_p.set_defaults(fn=cmd_status)

    agg_p = sub.add_parser("aggregate",
                           help="refold runs.jsonl into aggregate.json")
    agg_p.add_argument("--out", default=DEFAULT_OUT, metavar="DIR")
    agg_p.add_argument("--json", action="store_true",
                       help="print the aggregate as JSON")
    agg_p.set_defaults(fn=cmd_aggregate)

    args = parser.parse_args(argv)
    return int(args.fn(args))


if __name__ == "__main__":
    sys.exit(main())
