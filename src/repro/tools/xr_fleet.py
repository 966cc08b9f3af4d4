"""XR-Fleet CLI: run and inspect experiment sweeps.

::

    python -m repro.tools.xr_fleet run --spec ablation-grid --jobs 4
    python -m repro.tools.xr_fleet run --spec all --quick --jobs 2 \\
        --out fleet-out --json
    python -m repro.tools.xr_fleet status --out fleet-out

Verbs:

* ``run`` — expand the chosen spec sets, execute each run once on the
  supervised pool, write ``runs.jsonl`` + ``aggregate.json`` +
  ``manifest.json`` under ``--out`` (default ``fleet-out/``).  The
  aggregate is written even when the sweep crashes or is interrupted.
  Exit 0 if every run ended ``ok``, 1 if any run failed/crashed/timed
  out, 130 on interrupt.  A sweep with a bad run is re-run, not retried.
* ``status`` — progress and per-status counts of a (possibly running or
  interrupted) sweep directory.

The aggregate is byte-identical for any ``--jobs`` value — see
DESIGN.md ("Fleet") for the methodology.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.fleet.aggregate import aggregate_records, aggregate_tables
from repro.fleet.experiments import spec_names, specs_for
from repro.fleet.planner import plan
from repro.fleet.pool import FleetPool
from repro.fleet.store import ResultStore

DEFAULT_OUT = "fleet-out"


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
        aggregate = aggregate_records(
            units, {record["run_id"]: record
                    for record in store.load_records()})
        store.write_aggregate(aggregate)
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
              f"(wall {summary.wall_s:.1f}s, "
              f"respawns {summary.workers_respawned})")
    if summary.interrupted:
        return 130
    totals = aggregate["totals"]
    clean = totals["ok"] == totals["runs"]
    return 0 if clean else 1


def cmd_status(args: argparse.Namespace) -> int:
    store = ResultStore(Path(args.out))
    try:
        planned = store.load_plan()["units"]
    except (OSError, ValueError) as exc:
        print(f"xr-fleet: {args.out}: not a sweep directory ({exc})",
              file=sys.stderr)
        return 2
    records = store.load_records()
    recorded = {record.get("run_id") for record in records}
    by_status: Dict[str, int] = {}
    for record in records:
        status = record.get("status", "?")
        by_status[status] = by_status.get(status, 0) + 1
    pending = [run_id for run_id in planned if run_id not in recorded]
    payload = {
        "planned": len(planned),
        "recorded": len(planned) - len(pending),
        "pending": len(pending),
        "by_status": dict(sorted(by_status.items())),
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"xr-fleet status: {args.out}")
    print(f"  planned {payload['planned']}, recorded {payload['recorded']}, "
          f"pending {payload['pending']}")
    for status, count in payload["by_status"].items():
        print(f"    {status:<10} {count}")
    if pending and len(pending) <= 10:
        for run_id in pending:
            print(f"    pending: {run_id}")
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

    args = parser.parse_args(argv)
    return int(args.fn(args))


if __name__ == "__main__":
    sys.exit(main())
