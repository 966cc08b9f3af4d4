"""The sweep's on-disk artifact: JSONL run records + canonical JSON files.

Layout of a sweep directory::

    <out>/
      plan.json        expanded specs + run units (pure function of specs)
      runs.jsonl       one record per run, appended as runs finish
      aggregate.json   deterministic rollup — byte-identical for any --jobs
      manifest.json    environment: jobs, wall seconds, failure summary

``runs.jsonl`` is append-only and flushed per record so a killed sweep
leaves a readable prefix.  Every run executes once, so each record is its
run's record: a crashed, timed-out or cancelled run has one too, and a
planned run without one is reported ``missing``.

``aggregate.json`` is written via :func:`canonical_json` (sorted keys,
fixed separators, trailing newline) — byte identity across ``--jobs``
counts is asserted by tests and CI, not just promised.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, IO, Iterator, List, Optional, Sequence, Union

from repro.fleet.spec import ExperimentSpec, RunUnit

__all__ = ["ResultStore", "canonical_json", "read_jsonl"]

PLAN_NAME = "plan.json"
RUNS_NAME = "runs.jsonl"
TRACES_NAME = "traces.jsonl"
WINDOWS_NAME = "windows.jsonl"
AGGREGATE_NAME = "aggregate.json"
MANIFEST_NAME = "manifest.json"


def canonical_json(payload: Any) -> str:
    """Canonical bytes for jobs-invariant artifacts."""
    return json.dumps(payload, sort_keys=True, indent=2,
                      separators=(",", ": "), ensure_ascii=False) + "\n"


def read_jsonl(path: Union[str, Path]) -> Iterator[Any]:
    """Yield each parsed line of a JSONL file, in order.

    The one reader behind every artifact the store appends to: blank
    lines are skipped, and a torn tail line (a killed sweep's last
    partial write) ends the iteration — everything before it is good.
    """
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                return


class ResultStore:
    """Owns one sweep directory; all reads/writes go through here."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self._runs_handle: Optional[IO[str]] = None

    # ---------------------------------------------------------------- paths
    @property
    def plan_path(self) -> Path:
        return self.root / PLAN_NAME

    @property
    def runs_path(self) -> Path:
        return self.root / RUNS_NAME

    @property
    def traces_path(self) -> Path:
        return self.root / TRACES_NAME

    @property
    def windows_path(self) -> Path:
        return self.root / WINDOWS_NAME

    @property
    def aggregate_path(self) -> Path:
        return self.root / AGGREGATE_NAME

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    # -------------------------------------------------------------- writing
    def begin(self, specs: Sequence[ExperimentSpec],
              units: Sequence[RunUnit]) -> None:
        """Create the directory, persist the plan, truncate the record log."""
        self.root.mkdir(parents=True, exist_ok=True)
        plan = {
            "specs": [spec.as_dict() for spec in specs],
            "units": [unit.run_id for unit in units],
        }
        self.plan_path.write_text(canonical_json(plan), encoding="utf-8")
        self._runs_handle = open(self.runs_path, "w", encoding="utf-8")
        # A fresh sweep must not inherit a previous sweep's trace or
        # window lines.
        self.traces_path.unlink(missing_ok=True)
        self.windows_path.unlink(missing_ok=True)

    def append(self, record: Dict[str, Any]) -> None:
        """Append one run record, durably (flush + fsync).

        Per-trace lines (the bulky ``traces`` list of traced scenarios)
        are split off into ``traces.jsonl`` — the run record keeps the
        compact ``trace`` rollup; the artifact file is what
        ``repro.tools.xr_trace`` analyzes.  Per-window SLO rows
        (``windows``, XR-Serve scenarios) get the same treatment into
        ``windows.jsonl``, which ``repro.tools.xr_slo`` renders.
        """
        self._split(record, "traces", self.traces_path)
        self._split(record, "windows", self.windows_path)
        if self._runs_handle is None:
            self._runs_handle = open(self.runs_path, "a", encoding="utf-8")
        line = json.dumps(record, sort_keys=True, ensure_ascii=False)
        self._runs_handle.write(line + "\n")
        self._runs_handle.flush()
        os.fsync(self._runs_handle.fileno())

    def _split(self, record: Dict[str, Any], key: str, path: Path) -> None:
        """Peel ``record[key]`` (a list of dicts) off into a side artifact,
        each line stamped with its run_id."""
        entries = record.pop(key, None)
        if not entries:
            return
        with open(path, "a", encoding="utf-8") as handle:
            for entry in entries:
                stamped = dict(entry)
                stamped["run_id"] = record.get("run_id", "")
                handle.write(json.dumps(stamped, sort_keys=True,
                                        ensure_ascii=False) + "\n")

    def close(self) -> None:
        if self._runs_handle is not None:
            self._runs_handle.close()
            self._runs_handle = None

    def write_aggregate(self, aggregate: Dict[str, Any]) -> None:
        self.aggregate_path.write_text(canonical_json(aggregate),
                                       encoding="utf-8")

    def write_manifest(self, manifest: Dict[str, Any]) -> None:
        self.manifest_path.write_text(canonical_json(manifest),
                                      encoding="utf-8")

    # -------------------------------------------------------------- reading
    def load_plan(self) -> Dict[str, Any]:
        with open(self.plan_path, encoding="utf-8") as handle:
            plan = json.load(handle)
        units = plan.get("units") if isinstance(plan, dict) else None
        if not isinstance(units, list) \
                or not all(isinstance(run_id, str) for run_id in units):
            raise ValueError(f"{self.plan_path}: not a sweep plan")
        return plan

    def load_records(self) -> List[Dict[str, Any]]:
        """Every run record, in append order (torn-tail tolerant)."""
        if not self.runs_path.exists():
            return []
        return list(read_jsonl(self.runs_path))
