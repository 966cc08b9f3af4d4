"""The supervised worker pool: crash-isolated parallel sweep execution.

Architecture (one supervisor, N single-purpose workers)::

    supervisor ──task_q(1)──▶ worker 0 ──┐
               ──task_q(1)──▶ worker 1 ──┼──result_q──▶ supervisor
               ──task_q(1)──▶ ...      ──┘

Each worker owns a private depth-1 task queue, so the supervisor always
knows exactly which run a worker holds and since when — that is what
makes per-run wall-clock deadlines and crash attribution exact rather
than heuristic.  The contract the failure drills pin down:

* **One run, one record** — every run executes once.  A seeded run is a
  pure function of its scenario, params and seed, so a run that failed
  would fail the same way again; a sweep with a bad run exits 1 and is
  re-run, never retried.
* **Crash isolation** — a worker that dies mid-run (segfault analogue:
  ``os._exit``) is detected by liveness polling; the supervisor records
  the run ``crashed``, respawns a fresh worker, and the sweep continues.
* **Timeouts** — a run past its ``timeout_s`` deadline gets its worker
  killed (SIGKILL; no cooperation required) and is recorded ``timeout``.
  The in-engine guard (armed slightly tighter) usually turns the run
  into a reasoned ``failed`` record before the kill is needed.
* **Graceful cancellation** — on KeyboardInterrupt the supervisor stops
  dispatching, kills in-flight workers, records their runs
  ``cancelled``, and still writes a complete (if partial) store.

Dispatch order is the planner's canonical order regardless of ``jobs``;
completion interleaving differs, but the store keys records by run_id and
the aggregator sorts — which is why ``--jobs 1`` and ``--jobs 4`` emit
byte-identical aggregates.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional, Sequence

from repro.fleet.runner import _wall, execute_unit, run_record
from repro.fleet.spec import RunUnit
from repro.fleet.store import ResultStore

__all__ = ["FleetPool", "SweepSummary"]

#: supervisor poll period — bounds deadline-detection latency
_POLL_S = 0.05
#: how long to wait for a worker to exit before escalating to kill
_JOIN_S = 2.0


def _worker_main(worker_id: int, task_q: "mp.queues.Queue[Any]",
                 result_q: "mp.queues.Queue[Any]") -> None:
    """Worker loop: take a task, run it, post the record, repeat.

    Anything :func:`execute_unit` can catch is already a ``failed``
    record; anything it cannot (os._exit, signals, interpreter death) is
    the supervisor's crash-detection problem — by design there is no
    try/except here pretending otherwise.
    """
    while True:
        task = task_q.get()
        if task is None:
            return
        result_q.put((worker_id, execute_unit(task)))


@dataclass
class _Worker:
    worker_id: int
    process: mp.process.BaseProcess
    task_q: "mp.queues.Queue[Any]"
    current: Optional[RunUnit] = None
    deadline: float = 0.0


@dataclass
class SweepSummary:
    """What a pool run did, for manifests and CLI output."""

    records: int = 0                #: run records written
    ok: int = 0
    failed: int = 0
    crashed: int = 0
    timeout: int = 0
    cancelled: int = 0
    workers_respawned: int = 0
    wall_s: float = 0.0
    interrupted: bool = False

    def as_dict(self) -> Dict[str, Any]:
        return {
            "records": self.records, "ok": self.ok, "failed": self.failed,
            "crashed": self.crashed, "timeout": self.timeout,
            "cancelled": self.cancelled,
            "workers_respawned": self.workers_respawned,
            "wall_s": round(self.wall_s, 3),
            "interrupted": self.interrupted,
        }


class FleetPool:
    """Runs planned units across ``jobs`` supervised worker processes."""

    def __init__(self, jobs: int = 2) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        # fork keeps worker startup ~ms; fall back where unavailable.
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self._next_worker_id = 0

    # ------------------------------------------------------------ internals
    def _spawn_worker(self, result_q: "mp.queues.Queue[Any]") -> _Worker:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_q: "mp.queues.Queue[Any]" = self._ctx.Queue(maxsize=1)
        process = self._ctx.Process(
            target=_worker_main, args=(worker_id, task_q, result_q),
            name=f"xr-fleet-w{worker_id}", daemon=True)
        process.start()
        return _Worker(worker_id=worker_id, process=process, task_q=task_q)

    @staticmethod
    def _finish(record: Dict[str, Any], store: ResultStore,
                summary: SweepSummary) -> None:
        """Count and store a run's one record."""
        status = str(record.get("status", "failed"))
        summary.records += 1
        count_key = status if status in ("ok", "failed", "crashed",
                                         "timeout", "cancelled") else "failed"
        setattr(summary, count_key, getattr(summary, count_key) + 1)
        store.append(record)

    def _reap(self, worker: _Worker) -> None:
        """Make certain a worker process is gone (kill, join, close)."""
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=_JOIN_S)
        worker.task_q.close()

    # ------------------------------------------------------------------ run
    def run(self, units: Sequence[RunUnit],
            store: ResultStore) -> SweepSummary:
        """Execute every unit once (dispatching in the given canonical
        order); returns after every run has its record."""
        summary = SweepSummary()
        t0 = _wall()
        pending: Deque[RunUnit] = deque(units)
        result_q: "mp.queues.Queue[Any]" = self._ctx.Queue()
        n_workers = min(self.jobs, max(1, len(pending)))
        workers: Dict[int, _Worker] = {}
        for _ in range(n_workers):
            worker = self._spawn_worker(result_q)
            workers[worker.worker_id] = worker
        try:
            self._supervise(pending, workers, result_q, store, summary)
        except KeyboardInterrupt:
            summary.interrupted = True
            for worker in workers.values():
                if worker.current is not None:
                    self._finish(run_record(worker.current.as_task(),
                                            "cancelled", "sweep interrupted"),
                                 store, summary)
                    worker.current = None
        finally:
            for worker in workers.values():
                if worker.current is None and worker.process.is_alive():
                    try:
                        worker.task_q.put_nowait(None)
                    except queue.Full:
                        pass
                self._reap(worker)
            result_q.close()
            summary.wall_s = _wall() - t0
        return summary

    def _supervise(self, pending: Deque[RunUnit],
                   workers: Dict[int, _Worker],
                   result_q: "mp.queues.Queue[Any]", store: ResultStore,
                   summary: SweepSummary) -> None:
        while pending or any(w.current is not None
                             for w in workers.values()):
            # Dispatch: canonical order, to idle workers.
            now = _wall()
            for worker in workers.values():
                if worker.current is not None or not pending:
                    continue
                unit = pending.popleft()
                worker.current = unit
                worker.deadline = now + unit.timeout_s
                worker.task_q.put(unit.as_task())

            # Collect one result (bounded wait keeps the loop ticking).
            try:
                worker_id, record = result_q.get(timeout=_POLL_S)
            except queue.Empty:
                pass
            else:
                worker = workers.get(worker_id)
                if worker is not None and worker.current is not None:
                    worker.current = None
                    self._finish(record, store, summary)
                # else: a record from a worker killed at the same instant
                # its result landed — the kill path already recorded that
                # run; drop the duplicate.

            # Deadlines: kill overdue workers, record their runs timeout.
            now = _wall()
            for worker_id in list(workers):
                worker = workers[worker_id]
                unit = worker.current
                if unit is None or now <= worker.deadline:
                    continue
                self._reap(worker)
                del workers[worker_id]
                worker.current = None
                self._finish(run_record(
                    unit.as_task(), "timeout",
                    f"run exceeded timeout_s={unit.timeout_s}; "
                    f"worker killed"), store, summary)
                replacement = self._spawn_worker(result_q)
                workers[replacement.worker_id] = replacement
                summary.workers_respawned += 1

            # Crashes: a worker died while holding a run.
            for worker_id in list(workers):
                worker = workers[worker_id]
                if worker.process.is_alive():
                    continue
                unit = worker.current
                self._reap(worker)
                del workers[worker_id]
                if unit is not None:
                    worker.current = None
                    self._finish(run_record(
                        unit.as_task(), "crashed",
                        f"worker died mid-run "
                        f"(exitcode {worker.process.exitcode})"),
                        store, summary)
                if pending or any(w.current is not None
                                  for w in workers.values()) or unit:
                    replacement = self._spawn_worker(result_q)
                    workers[replacement.worker_id] = replacement
                    summary.workers_respawned += 1
