"""Stable-window SLO measurement (XR-Serve).

Open-loop measurement is only honest when it is *windowed*: a run-long
percentile hides the minutes where the system fell behind, and the ramp
at both ends of a run contaminates whatever it touches.  The engine here
follows the queueing-middleware methodology the roadmap names:

* simulated time is cut into fixed windows of ``window_ns``;
* every *offered* request is counted in the window of its arrival, every
  *completion* (and its latency) in the window it completed in — the
  offered-vs-achieved gap per window is the backlog signal;
* the first ``warmup_windows`` and last ``cooldown_windows`` windows are
  excluded from verdicts ("stable windows");
* per-window percentiles are nearest-rank over the window's raw latency
  values via :func:`repro.analysis.stats.percentile` — the *same*
  routine the fleet aggregate uses, so a window p99 and an aggregate p99
  are the same statistic;
* an :class:`SloTarget` turns stable windows into a verdict: the
  fraction of stable windows whose target-percentile latency met the
  bound (``slo_attainment``), and a pass only when every one did.

Everything recorded is simulation-time integers, so the whole window
table — and its SHA-256 :meth:`WindowedRecorder.digest` — is a pure
function of the run's seed.  The digest is a fingerprint for code that
compares runs, so it is computed only when asked for:
:meth:`WindowedRecorder.summary` does not carry it, and the fleet's
serving scenarios add it to their records as ``<tenant>_window_digest``.
Fleet records ship the table as the ``windows.jsonl`` artifact;
:mod:`repro.tools.xr_slo` renders it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.analysis.stats import percentile
from repro.sim.timeunits import SECONDS

__all__ = ["SloTarget", "WindowedRecorder", "slo_verdict"]


@dataclass(frozen=True)
class SloTarget:
    """A latency service-level objective: ``percentile`` <= ``latency_us``.

    ``min_achieved_rps`` optionally adds a throughput floor — a window
    that met its latency bound while completing almost nothing (because
    everything was still queued) is not a healthy window.
    """

    percentile: float = 99.0
    latency_us: float = 1000.0
    min_achieved_rps: float = 0.0

    def window_ok(self, p_us: float, achieved_rps: float) -> bool:
        if p_us > self.latency_us:
            return False
        return achieved_rps >= self.min_achieved_rps


def slo_verdict(rows: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """``slo_attainment`` / ``slo_ok`` from window rows carrying their
    own per-window ``slo_ok``.  Judged windows are the stable ones that
    saw traffic; idle stable windows are vacuously fine and excluded."""
    judged = [row for row in rows if row.get("stable")
              and (row.get("offered", 0) or row.get("completed", 0))]
    ok = sum(1 for row in judged if row.get("slo_ok"))
    return {
        "slo_attainment": round(ok / len(judged), 4) if judged else 0.0,
        "slo_ok": int(bool(judged) and ok == len(judged)),
    }


class WindowedRecorder:
    """Per-tenant windowed offered/achieved/latency accounting.

    One recorder per tenant; the tenant driver calls :meth:`on_offered`
    at every arrival and :meth:`on_completed` at every response, and the
    harness calls :meth:`close` once with the configured horizon so the
    window count is fixed by the *plan*, not by how far completions
    straggled (stragglers land in cooldown windows, which is exactly
    what cooldown windows are for).
    """

    def __init__(self, window_ns: int, warmup_windows: int = 1,
                 cooldown_windows: int = 1) -> None:
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        if warmup_windows < 0 or cooldown_windows < 0:
            raise ValueError("warmup/cooldown window counts must be >= 0")
        self.window_ns = window_ns
        self.warmup_windows = warmup_windows
        self.cooldown_windows = cooldown_windows
        self.offered: Dict[int, int] = {}
        self.completed: Dict[int, int] = {}
        self.latencies: Dict[int, List[int]] = {}
        self.errors = 0
        self.total_offered = 0
        self.total_completed = 0
        self._horizon_ns: Optional[int] = None

    # -------------------------------------------------------------- recording
    def _index(self, now_ns: int) -> int:
        return now_ns // self.window_ns

    def on_offered(self, now_ns: int) -> None:
        index = self._index(now_ns)
        self.offered[index] = self.offered.get(index, 0) + 1
        self.total_offered += 1

    def on_completed(self, now_ns: int, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency: {latency_ns}")
        index = self._index(now_ns)
        self.completed[index] = self.completed.get(index, 0) + 1
        self.latencies.setdefault(index, []).append(latency_ns)
        self.total_completed += 1

    def on_error(self) -> None:
        self.errors += 1

    def close(self, horizon_ns: int) -> None:
        """Fix the window count to the configured run horizon."""
        if horizon_ns <= 0:
            raise ValueError(f"horizon_ns must be positive, got {horizon_ns}")
        self._horizon_ns = horizon_ns

    # ------------------------------------------------------------- inspection
    @property
    def n_windows(self) -> int:
        """Planned windows when closed, else last observed window + 1."""
        if self._horizon_ns is not None:
            return -(-self._horizon_ns // self.window_ns)
        observed = list(self.offered) + list(self.completed)
        return max(observed) + 1 if observed else 0

    def stable_indices(self) -> List[int]:
        """Window indices that count toward the SLO verdict."""
        total = self.n_windows
        first = self.warmup_windows
        last = total - self.cooldown_windows
        return list(range(first, max(first, last)))

    def _window_row(self, index: int, stable: bool,
                    slo: Optional[SloTarget]) -> Dict[str, Any]:
        window_s = self.window_ns / SECONDS
        offered = self.offered.get(index, 0)
        completed = self.completed.get(index, 0)
        values = sorted(self.latencies.get(index, []))
        achieved_rps = completed / window_s
        row: Dict[str, Any] = {
            "window": index,
            "start_ms": round(index * self.window_ns / 1e6, 3),
            "stable": stable,
            "offered": offered,
            "completed": completed,
            "offered_rps": round(offered / window_s, 1),
            "achieved_rps": round(achieved_rps, 1),
            "p50_us": 0.0,
            "p99_us": 0.0,
            "max_us": 0.0,
        }
        if values:
            row["p50_us"] = round(percentile(values, 0.50) / 1000, 2)
            row["p99_us"] = round(percentile(values, 0.99) / 1000, 2)
            row["max_us"] = round(values[-1] / 1000, 2)
        if slo is not None:
            if not offered and not values:
                row["slo_ok"] = True        # nothing asked, nothing owed
            else:
                p_us = (percentile(values, slo.percentile / 100) / 1000
                        if values else float("inf"))
                row["slo_ok"] = bool(values) and slo.window_ok(p_us,
                                                               achieved_rps)
        return row

    def rows(self, slo: Optional[SloTarget] = None) -> List[Dict[str, Any]]:
        """The full per-window table (stragglers past the horizon kept —
        they show up as extra, non-stable windows)."""
        stable = set(self.stable_indices())
        observed = set(self.offered) | set(self.completed)
        indices = sorted(set(range(self.n_windows)) | observed)
        return [self._window_row(index, index in stable, slo)
                for index in indices]

    # --------------------------------------------------------------- verdicts
    def summary(self, slo: SloTarget) -> Dict[str, Any]:
        """Flat metrics over the *stable* windows (fleet-record ready)."""
        stable = self.stable_indices()
        offered = sum(self.offered.get(index, 0) for index in stable)
        completed = sum(self.completed.get(index, 0) for index in stable)
        pooled = sorted(value for index in stable
                        for value in self.latencies.get(index, ()))
        stable_s = len(stable) * self.window_ns / SECONDS
        return {
            "windows": self.n_windows,
            "windows_stable": len(stable),
            "offered": offered,
            "completed": completed,
            "errors": self.errors,
            "offered_rps": round(offered / stable_s, 1) if stable_s else 0.0,
            "achieved_rps": (round(completed / stable_s, 1)
                             if stable_s else 0.0),
            "p50_us": (round(percentile(pooled, 0.50) / 1000, 2)
                       if pooled else 0.0),
            "p99_us": (round(percentile(pooled, 0.99) / 1000, 2)
                       if pooled else 0.0),
            "slo_target_us": slo.latency_us,
            "slo_percentile": slo.percentile,
            **slo_verdict(self.rows(slo)),
        }

    def digest(self) -> str:
        """SHA-256 over the complete window content.

        Covers counts *and* every raw latency value per window, in
        canonical order — two runs agree on this hex iff their window
        histograms are identical.
        """
        # Imported here so that only a run that asks for the digest maps
        # OpenSSL.
        import hashlib

        hasher = hashlib.sha256()
        observed = sorted(set(self.offered) | set(self.completed))
        for index in observed:
            values = ",".join(str(v)
                              for v in sorted(self.latencies.get(index, [])))
            hasher.update(f"{index}:{self.offered.get(index, 0)}:"
                          f"{self.completed.get(index, 0)}:{values}\n"
                          .encode("utf-8"))
        return hasher.hexdigest()
