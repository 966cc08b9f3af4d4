"""Folding run records into the jobs-invariant aggregate.

The aggregate is a pure function of ``(plan, run records)``: records
are keyed and sorted by run_id, every float comes from the deterministic
simulations themselves, and nothing wall-clock-derived is admitted
(``wall_s`` and worker ids live only in ``runs.jsonl`` and the
manifest).  Serialize it with
:func:`repro.fleet.store.canonical_json` and the bytes are identical for
``--jobs 1`` and ``--jobs N`` — the property the committed invariance
test and the CI ``fleet-smoke`` job both enforce.

Structure::

    {
      "experiments": {name: {param_slug: {metric: {mean,p50,p90,min,max,n},
                                          runs, ok, failed,
                                          invariant_violations, digest}}},
      "runs":        {run_id: {status, seed, digest, metrics, ...}},
      "totals":      {runs, ok, failed, crashed, timeout, cancelled, missing,
                      invariant_violations, tie_anomalies}
    }

Percentiles use nearest-rank on the sorted values — integer index
arithmetic, no interpolation, no float-order sensitivity.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from typing import Any, Dict, List, Mapping, Sequence

from repro.analysis.stats import nearest_rank
from repro.fleet.spec import RunUnit, format_params

__all__ = ["aggregate_records", "metric_stats", "aggregate_tables"]

#: run-record fields that never enter the aggregate (host timing the
#: invariance guarantee must not depend on; ``traces`` and ``windows``
#: are normally split into traces.jsonl / windows.jsonl before records
#: reach us, but a hand-fed record must not bloat the aggregate either)
_EXCLUDED_FIELDS = ("wall_s", "worker", "traces", "windows")


def metric_stats(values: Sequence[float]) -> Dict[str, float]:
    """Deterministic summary of one metric across seeds."""
    ordered = sorted(values)
    return {
        "n": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "p50": nearest_rank(ordered, 0.50),
        "p90": nearest_rank(ordered, 0.90),
        "min": ordered[0],
        "max": ordered[-1],
    }


def _strip(record: Mapping[str, Any]) -> Dict[str, Any]:
    return {key: value for key, value in record.items()
            if key not in _EXCLUDED_FIELDS}


def _digest_roll(entries: Sequence[str]) -> str:
    """One digest over many ``run_id:digest`` lines (sorted)."""
    joined = "\n".join(sorted(entries))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def aggregate_records(
        units: Sequence[RunUnit],
        records: Mapping[str, Mapping[str, Any]]) -> Dict[str, Any]:
    """Fold run records (keyed by run_id) into the aggregate.

    ``units`` is the plan — any planned run without a record is reported
    ``missing`` (an interrupted sweep) rather than silently dropped.
    """
    runs: Dict[str, Any] = {}
    by_group: Dict[str, Dict[str, List[Mapping[str, Any]]]] = \
        defaultdict(lambda: defaultdict(list))
    totals = {"runs": 0, "ok": 0, "failed": 0, "crashed": 0, "timeout": 0,
              "cancelled": 0, "missing": 0,
              "invariant_violations": 0, "tie_anomalies": 0}

    for unit in sorted(units, key=lambda u: u.run_id):
        totals["runs"] += 1
        record = records.get(unit.run_id)
        if record is None:
            runs[unit.run_id] = {"status": "missing", "seed": unit.seed,
                                 "params": unit.params_dict}
            totals["missing"] += 1
            continue
        status = str(record.get("status", "failed"))
        totals[status] = totals.get(status, 0) + 1
        totals["invariant_violations"] += int(
            record.get("invariant_violations", 0))
        totals["tie_anomalies"] += int(record.get("tie_anomalies", 0))
        runs[unit.run_id] = _strip(record)
        slug = format_params(unit.params_dict) or "-"
        by_group[unit.experiment][slug].append(record)

    experiments: Dict[str, Any] = {}
    for experiment in sorted(by_group):
        groups: Dict[str, Any] = {}
        for slug in sorted(by_group[experiment]):
            group = by_group[experiment][slug]
            ok = [r for r in group if r.get("status") == "ok"]
            metrics: Dict[str, Any] = {}
            numeric: Dict[str, List[float]] = defaultdict(list)
            for record in ok:
                for key, value in record.get("metrics", {}).items():
                    if isinstance(value, bool):
                        continue
                    if isinstance(value, (int, float)):
                        numeric[key].append(float(value))
            for key in sorted(numeric):
                metrics[key] = metric_stats(numeric[key])
            groups[slug] = {
                "runs": len(group),
                "ok": len(ok),
                "failed": len(group) - len(ok),
                "invariant_violations": sum(
                    int(r.get("invariant_violations", 0)) for r in group),
                "digest": _digest_roll(
                    [f"{r['run_id']}:{r.get('digest', '')}" for r in ok]),
                "metrics": metrics,
            }
        experiments[experiment] = groups

    return {"experiments": experiments, "runs": runs, "totals": totals}


# ------------------------------------------------------------- rendering
def aggregate_tables(aggregate: Mapping[str, Any]) -> str:
    """Paper-style text tables (one per experiment) from an aggregate."""
    lines: List[str] = []
    experiments = aggregate.get("experiments", {})
    for experiment in sorted(experiments):
        groups = experiments[experiment]
        lines.append(f"===== {experiment} =====")
        metric_names: List[str] = sorted(
            {name for group in groups.values()
             for name in group.get("metrics", {})})
        header = f"{'params':<40}" + "".join(
            f" {name:>18}" for name in metric_names) + f" {'ok/runs':>8}"
        lines.append(header)
        for slug in sorted(groups):
            group = groups[slug]
            row = f"{slug:<40}"
            for name in metric_names:
                stats = group["metrics"].get(name)
                row += (f" {stats['mean']:>18.3f}" if stats
                        else f" {'-':>18}")
            row += f" {group['ok']:>4}/{group['runs']}"
            lines.append(row)
        lines.append("")
    totals = aggregate.get("totals", {})
    if totals:
        lines.append(
            "totals: " + " ".join(f"{key}={totals[key]}"
                                  for key in sorted(totals)))
    return "\n".join(lines)
