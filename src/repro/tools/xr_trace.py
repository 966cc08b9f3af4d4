"""XR-Trace CLI: analyze a span-trace artifact (Sec. VI-A / VII-D).

::

    python -m repro.tools.xr_trace fleet-out/traces.jsonl
    python -m repro.tools.xr_trace traces.jsonl --slowest 10
    python -m repro.tools.xr_trace traces.jsonl --json

Reads the JSONL written by :func:`repro.analysis.tracing.export_jsonl`
or a fleet sweep's ``traces.jsonl`` (same record lines, stamped with
``run_id``; no meta line) and reports:

* **summary** — record counts, incomplete traces, negative-network clamp
  events, suppressed (retransmit) marks;
* **per-segment breakdown** — p50/p90/p99/max and share of total traced
  time for every span stage;
* **slowest-N traces** — full span decomposition of each, worst first;
* **critical-path attribution** — which stage dominates each trace, the
  histogram that pointed Sec. VII-D's jitter hunt at the host allocator
  rather than the fabric.

All output is deterministically ordered (ties broken by stage name /
trace id), so ``--json`` output under a fixed seed is golden-testable.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.stats import nearest_rank
from repro.fleet.store import read_jsonl

__all__ = ["main", "analyze", "load_trace_file"]


def load_trace_file(path: str) -> Tuple[Dict[str, Any],
                                        List[Dict[str, Any]]]:
    """Parse one trace artifact into (meta, records).

    Tolerates the meta line being absent (fleet ``traces.jsonl``) and a
    torn tail line (a killed run's partial write).  Records seen twice
    for one trace (sender and receiver view in a hand-merged file) are
    deduplicated, sender view preferred.
    """
    meta: Dict[str, Any] = {}
    by_key: Dict[Tuple[str, int], Dict[str, Any]] = {}
    for payload in read_jsonl(path):
        if not isinstance(payload, dict):
            continue
        if "meta" in payload and "trace_id" not in payload:
            meta.update(payload["meta"])
            continue
        if "trace_id" not in payload:
            continue
        key = (str(payload.get("run_id", "")), int(payload["trace_id"]))
        existing = by_key.get(key)
        if existing is None or (existing.get("view") != "sender"
                                and payload.get("view") == "sender"):
            by_key[key] = payload
    records = [by_key[key] for key in sorted(by_key)]
    return meta, records


def analyze(meta: Dict[str, Any], records: List[Dict[str, Any]],
            slowest: int = 5) -> Dict[str, Any]:
    """Fold trace records into the report payload (the ``--json`` output)."""
    completed = [record for record in records if record.get("complete")]
    spans_by_stage: Dict[str, List[int]] = {}
    dominated_by: Dict[str, int] = {}
    grand_total = 0
    for record in completed:
        worst_stage, worst_ns = "", -1
        for stage, duration in record.get("spans", []):
            spans_by_stage.setdefault(stage, []).append(int(duration))
            grand_total += int(duration)
            # Ties go to the later stage name: max over (duration, stage).
            if (duration, stage) > (worst_ns, worst_stage):
                worst_stage, worst_ns = stage, duration
        if worst_stage:
            dominated_by[worst_stage] = dominated_by.get(worst_stage, 0) + 1

    segments: Dict[str, Dict[str, Any]] = {}
    for stage in sorted(spans_by_stage):
        values = sorted(spans_by_stage[stage])
        total = sum(values)
        segments[stage] = {
            "count": len(values),
            "p50_ns": nearest_rank(values, 0.50),
            "p90_ns": nearest_rank(values, 0.90),
            "p99_ns": nearest_rank(values, 0.99),
            "max_ns": values[-1],
            "total_ns": total,
            "share": round(total / grand_total, 4) if grand_total else 0.0,
        }

    ranked = sorted(
        completed,
        key=lambda record: (-int(record.get("total_ns", 0)),
                            int(record["trace_id"]),
                            str(record.get("run_id", ""))))
    worst = [{
        "trace_id": record["trace_id"],
        "run_id": record.get("run_id", ""),
        "src_host": record.get("src_host"),
        "dst_host": record.get("dst_host"),
        "kind": record.get("kind", ""),
        "payload_size": record.get("payload_size", 0),
        "total_ns": record.get("total_ns", 0),
        "network_ns": record.get("network_ns", 0),
        "residual_ns": record.get("residual_ns", 0),
        "spans": record.get("spans", []),
        "dominant": max(record.get("spans", []) or [["", 0]],
                        key=lambda item: (item[1], item[0]))[0],
    } for record in ranked[:slowest]]

    residual_violations = sum(
        1 for record in completed if record.get("residual_ns", 0) != 0)
    setup_traces = sum(1 for record in records
                       if record.get("view") == "setup")
    return {
        "summary": {
            "records": len(records),
            "completed": len(completed),
            "incomplete": len(records) - len(completed),
            "setup_traces": setup_traces,
            "residual_violations": residual_violations,
            "negative_network_clamped": int(
                meta.get("negative_network_clamped",
                         sum(1 for record in records
                             if record.get("network_ns", 0) < 0))),
            "suppressed_marks": int(meta.get("suppressed_marks", 0)),
        },
        "segments": segments,
        "slowest": worst,
        "critical_path": {stage: dominated_by[stage]
                          for stage in sorted(dominated_by)},
    }


# ---------------------------------------------------------------- rendering
def _fmt_ns(value: Any) -> str:
    return f"{value / 1000:.1f}us" if value >= 10_000 else f"{value}ns"


def _render(report: Dict[str, Any]) -> str:
    lines: List[str] = []
    summary = report["summary"]
    lines.append("xr-trace summary")
    lines.append(f"  traces      {summary['records']} "
                 f"({summary['completed']} complete, "
                 f"{summary['incomplete']} incomplete, "
                 f"{summary['setup_traces']} setup)")
    lines.append(f"  residual!=0 {summary['residual_violations']}")
    lines.append(f"  neg-network clamped {summary['negative_network_clamped']}"
                 f"   suppressed marks {summary['suppressed_marks']}")
    segments = report["segments"]
    if segments:
        lines.append("")
        lines.append(f"  {'segment':<18} {'count':>6} {'p50':>9} {'p90':>9} "
                     f"{'p99':>9} {'max':>9} {'share':>7}")
        for stage, row in segments.items():
            lines.append(
                f"  {stage:<18} {row['count']:>6} "
                f"{_fmt_ns(row['p50_ns']):>9} {_fmt_ns(row['p90_ns']):>9} "
                f"{_fmt_ns(row['p99_ns']):>9} {_fmt_ns(row['max_ns']):>9} "
                f"{row['share'] * 100:>6.1f}%")
    critical = report["critical_path"]
    if critical:
        lines.append("")
        lines.append("  critical-path attribution (dominant segment per trace)")
        peak = max(critical.values())
        for stage in sorted(critical, key=lambda s: (-critical[s], s)):
            count = critical[stage]
            bar = "#" * max(1, round(count * 24 / peak))
            lines.append(f"    {stage:<18} {count:>5}  {bar}")
    worst = report["slowest"]
    if worst:
        lines.append("")
        lines.append(f"  slowest {len(worst)} traces")
        for entry in worst:
            where = (f" [{entry['run_id']}]" if entry["run_id"] else "")
            lines.append(
                f"    #{entry['trace_id']}{where} {entry['kind']} "
                f"{entry['payload_size']}B "
                f"h{entry['src_host']}->h{entry['dst_host']} "
                f"total {_fmt_ns(entry['total_ns'])} "
                f"(dominant: {entry['dominant']})")
            breakdown = ", ".join(f"{stage} {_fmt_ns(duration)}"
                                  for stage, duration in entry["spans"])
            lines.append(f"      {breakdown}")
    return "\n".join(lines)


# -------------------------------------------------------------------- main
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="xr_trace",
        description="XR-Trace: span decomposition / critical-path analysis")
    parser.add_argument("trace_file",
                        help="JSONL trace artifact (export_jsonl output or "
                             "a fleet sweep's traces.jsonl)")
    parser.add_argument("--slowest", type=int, default=5, metavar="N",
                        help="how many worst traces to detail (default 5)")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    args = parser.parse_args(argv)
    try:
        meta, records = load_trace_file(args.trace_file)
    except OSError as exc:
        print(f"xr-trace: {args.trace_file}: {exc}", file=sys.stderr)
        return 2
    report = analyze(meta, records, slowest=max(0, args.slowest))
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_render(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
