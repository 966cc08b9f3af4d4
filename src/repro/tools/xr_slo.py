"""XR-SLO CLI: render per-tenant windowed SLO tables from a serving sweep.

::

    python -m repro.tools.xr_slo fleet-out/
    python -m repro.tools.xr_slo fleet-out/ --windows <run_id>
    python -m repro.tools.xr_slo fleet-out/ --markdown
    python -m repro.tools.xr_slo fleet-out/windows.jsonl --json

Reads the ``windows.jsonl`` a ``--spec serving`` sweep leaves next to
``aggregate.json`` (or the file itself) and reports, per run and tenant:
stable-window counts, offered vs achieved rates, the worst stable-window
p99 and the SLO attainment fraction.  ``--windows`` details one run's
full per-window table; ``--markdown`` emits the summary as a GitHub
table (what EXPERIMENTS.md embeds).

All output is deterministically ordered by ``(run_id, tenant,
window)``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.fleet.store import read_jsonl
from repro.serving.windows import slo_verdict

__all__ = ["main", "load_window_rows", "tenant_tables", "summarize"]

WINDOW_COLUMNS = ("window", "start_ms", "stable", "offered", "completed",
                  "offered_rps", "achieved_rps", "p50_us", "p99_us",
                  "max_us", "slo_ok")


def load_window_rows(path: str) -> List[Dict[str, Any]]:
    """Parse a windows.jsonl (torn-tail tolerant, like every store read)."""
    return [payload for payload in read_jsonl(path)
            if isinstance(payload, dict) and "window" in payload]


def tenant_tables(rows: List[Dict[str, Any]]
                  ) -> Dict[Tuple[str, str], List[Dict[str, Any]]]:
    """Group rows by ``(run_id, tenant)``."""
    tables: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for row in rows:
        key = (str(row.get("run_id", "")), str(row.get("tenant", "")))
        tables.setdefault(key, []).append(row)
    for table in tables.values():
        table.sort(key=lambda row: int(row["window"]))
    return tables


def summarize(table: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One run+tenant's verdict line from its window rows (attainment
    by :func:`repro.serving.windows.slo_verdict`, the recorder's own)."""
    stable = [row for row in table if row.get("stable")]
    return {
        "windows": len(table),
        "windows_stable": len(stable),
        "offered": sum(int(row.get("offered", 0)) for row in stable),
        "completed": sum(int(row.get("completed", 0)) for row in stable),
        "offered_rps": (max(float(row.get("offered_rps", 0.0))
                            for row in stable) if stable else 0.0),
        "achieved_rps": (max(float(row.get("achieved_rps", 0.0))
                             for row in stable) if stable else 0.0),
        # idle stable windows carry p99 0.0, so they never win the max
        "worst_p99_us": (max(float(row.get("p99_us", 0.0))
                             for row in stable) if stable else 0.0),
        **slo_verdict(table),
    }


# ---------------------------------------------------------------- rendering
def _summary_rows(tables: Dict[Tuple[str, str], List[Dict[str, Any]]]
                  ) -> List[Tuple[str, str, Dict[str, Any]]]:
    return [(run_id, tenant, summarize(tables[(run_id, tenant)]))
            for run_id, tenant in sorted(tables)]


def _render_text(tables: Dict[Tuple[str, str], List[Dict[str, Any]]]) -> str:
    lines = ["xr-slo summary (stable windows)"]
    lines.append(f"  {'run':<44} {'tenant':<8} {'win':>5} {'offered':>8} "
                 f"{'achieved':>9} {'worst p99':>10} {'attain':>7} {'ok':>3}")
    for run_id, tenant, summary in _summary_rows(tables):
        lines.append(
            f"  {run_id:<44} {tenant:<8} "
            f"{summary['windows_stable']:>5} "
            f"{summary['offered_rps']:>8.0f} "
            f"{summary['achieved_rps']:>9.0f} "
            f"{summary['worst_p99_us']:>8.1f}us "
            f"{summary['slo_attainment'] * 100:>6.1f}% "
            f"{'y' if summary['slo_ok'] else 'n':>3}")
    return "\n".join(lines)


def _render_markdown(tables: Dict[Tuple[str, str],
                                  List[Dict[str, Any]]]) -> str:
    lines = ["| run | tenant | stable windows | offered rps | achieved rps "
             "| worst p99 (us) | SLO attainment | SLO |",
             "|---|---|---:|---:|---:|---:|---:|:---:|"]
    for run_id, tenant, summary in _summary_rows(tables):
        lines.append(
            f"| `{run_id}` | {tenant} | {summary['windows_stable']} "
            f"| {summary['offered_rps']:.0f} "
            f"| {summary['achieved_rps']:.0f} "
            f"| {summary['worst_p99_us']:.1f} "
            f"| {summary['slo_attainment'] * 100:.1f}% "
            f"| {'pass' if summary['slo_ok'] else 'FAIL'} |")
    return "\n".join(lines)


def _render_windows(tables: Dict[Tuple[str, str], List[Dict[str, Any]]],
                    run_id: str) -> str:
    selected = {key: table for key, table in tables.items()
                if key[0] == run_id}
    if not selected:
        return f"xr-slo: no window rows for run {run_id!r}"
    lines: List[str] = []
    for key in sorted(selected):
        _, tenant = key
        lines.append(f"run {run_id} tenant {tenant}")
        lines.append("  " + " ".join(f"{col:>12}" for col in WINDOW_COLUMNS))
        for row in selected[key]:
            lines.append("  " + " ".join(
                f"{row.get(col, ''):>12}" for col in WINDOW_COLUMNS))
        lines.append("")
    return "\n".join(lines).rstrip()


# -------------------------------------------------------------------- main
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="xr_slo",
        description="XR-SLO: per-tenant windowed SLO tables from a "
                    "serving sweep")
    parser.add_argument("path",
                        help="sweep directory (containing windows.jsonl) "
                             "or a windows.jsonl file")
    parser.add_argument("--windows", metavar="RUN_ID",
                        help="print the full per-window table for one run")
    parser.add_argument("--markdown", action="store_true",
                        help="emit the summary as a GitHub-style table")
    parser.add_argument("--json", action="store_true",
                        help="emit summaries (and tables) as JSON")
    args = parser.parse_args(argv)

    path = Path(args.path)
    if path.is_dir():
        path = path / "windows.jsonl"
    try:
        rows = load_window_rows(str(path))
        tables = tenant_tables(rows)
    except (OSError, TypeError, ValueError) as exc:
        # ValueError covers a non-UTF-8 file and a non-integer window
        print(f"xr-slo: {path}: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print(f"xr-slo: {path}: no window rows (not a serving sweep?)",
              file=sys.stderr)
        return 1
    if args.json:
        payload = {
            "summaries": [
                {"run_id": run_id, "tenant": tenant, **summary}
                for run_id, tenant, summary in _summary_rows(tables)],
        }
        if args.windows:
            payload["windows"] = [
                row for key in sorted(tables) if key[0] == args.windows
                for row in tables[key]]
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.windows:
        print(_render_windows(tables, args.windows))
    elif args.markdown:
        print(_render_markdown(tables))
    else:
        print(_render_text(tables))
    return 0


if __name__ == "__main__":
    sys.exit(main())
