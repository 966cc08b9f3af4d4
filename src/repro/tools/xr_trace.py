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

The fold is :func:`repro.analysis.tracing.analyze`; every traced fleet
run carries the same fold as its record's ``trace`` section.  All output
is deterministically ordered (ties broken by stage name / trace id), so
``--json`` output under a fixed seed is golden-testable.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.tracing import analyze
from repro.fleet.store import read_jsonl

__all__ = ["main", "load_trace_file"]


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
