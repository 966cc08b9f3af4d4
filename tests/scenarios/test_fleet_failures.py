"""Fault injection against the fleet supervisor itself.

The drills in :mod:`repro.fleet.drills` misbehave deterministically —
raise, ``os._exit``, run away inside the engine, or hang outside it —
and these tests pin down the supervisor contract: the sweep always
completes, every run is recorded exactly once with a reason, and
surviving runs stay violation-free.
"""

import json

from repro.fleet.experiments import KB
from repro.fleet.pool import FleetPool
from repro.fleet.spec import ExperimentSpec
from repro.fleet.planner import plan
from repro.fleet.store import ResultStore
from repro.tools import xr_fleet


def sweep(tmp_path, specs, jobs=2):
    units = plan(specs)
    store = ResultStore(tmp_path / "sweep")
    store.begin(specs, units)
    pool = FleetPool(jobs=jobs)
    summary = pool.run(units, store)
    store.close()
    return units, store, summary


def records_by_run(store):
    """run_id -> its record; a run recorded twice fails the test."""
    records = store.load_records()
    by_run = {record["run_id"]: record for record in records}
    assert len(by_run) == len(records), "a run was recorded more than once"
    return by_run


def healthy_spec(**kwargs):
    base = dict(name="control", scenario="drill-healthy",
                grid={}, seeds=[0], timeout_s=30.0,
                max_events=100_000)
    base.update(kwargs)
    return ExperimentSpec(**base)


class TestCrashIsolation:
    def test_crash_is_quarantined_with_exact_attempts(self, tmp_path,
                                                      monkeypatch):
        """A worker dying mid-run is one ``crashed`` record and one
        respawn, never a retry; the sweep completes and exits 1."""
        specs = [
            healthy_spec(),
            ExperimentSpec(name="crasher", scenario="drill-crashing",
                           grid={}, seeds=[0], timeout_s=30.0),
        ]
        monkeypatch.setattr(xr_fleet, "specs_for",
                            lambda names, quick=False: specs)
        out = tmp_path / "sweep"
        assert xr_fleet.main(["run", "--jobs", "2", "--out", str(out),
                              "--json"]) == 1

        store = ResultStore(out)
        records = records_by_run(store)
        assert sorted(records) == sorted(u.run_id for u in plan(specs))

        crash = records["crasher/-/s0"]
        assert crash["status"] == "crashed"
        assert "worker died" in crash["reason"]
        statuses = [r["status"] for r in store.load_records()]
        assert statuses.count("crashed") == 1

        # The dead worker was replaced once, and nothing ran twice.
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["summary"]["workers_respawned"] == 1
        assert manifest["summary"]["records"] == 2

        # The healthy control run rode along untouched.
        control = records["control/-/s0"]
        assert control["status"] == "ok"
        assert control["invariant_violations"] == 0
        assert control["metrics"] == {"ticks": 10}

    def test_raising_scenario_fails_without_killing_worker(self, tmp_path):
        specs = [
            healthy_spec(),
            ExperimentSpec(name="raiser", scenario="drill-raising",
                           grid={}, seeds=[0], timeout_s=30.0),
        ]
        units, store, summary = sweep(tmp_path, specs, jobs=1)

        records = records_by_run(store)
        raiser = records["raiser/-/s0"]
        assert raiser["status"] == "failed"
        assert "injected failure (seed 0)" in raiser["reason"]
        # An in-worker exception is caught in-process: the same worker
        # served both runs, so nothing crashed or respawned.
        assert summary.crashed == 0
        assert summary.workers_respawned == 0
        assert records["control/-/s0"]["status"] == "ok"


class TestRunawayContainment:
    def test_engine_runaway_dies_as_recorded_failure(self, tmp_path):
        """With max_events armed, an unbounded event loop becomes a
        reasoned ``failed`` record — no kill needed."""
        specs = [ExperimentSpec(
            name="runaway", scenario="drill-runaway", grid={}, seeds=[0],
            timeout_s=30.0, max_events=5_000)]
        units, store, summary = sweep(tmp_path, specs, jobs=1)

        record = records_by_run(store)["runaway/-/s0"]
        assert record["status"] == "failed"
        assert "GuardExceeded" in record["reason"]
        assert summary.timeout == 0 and summary.workers_respawned == 0

    def test_hang_outside_engine_is_killed_and_recorded(self, tmp_path):
        """A scenario stuck outside the engine loop can only be stopped
        by the supervisor's SIGKILL deadline — the backstop path."""
        specs = [
            healthy_spec(),
            ExperimentSpec(name="hanger", scenario="drill-hang",
                           grid={}, seeds=[0], timeout_s=1.0),
        ]
        units, store, summary = sweep(tmp_path, specs)

        records = records_by_run(store)
        hang = records["hanger/-/s0"]
        assert hang["status"] == "timeout"
        assert "timeout_s=1.0" in hang["reason"]
        assert summary.timeout == 1
        assert summary.workers_respawned >= 1

        # The sweep still completed, and the survivor is clean.
        control = records["control/-/s0"]
        assert control["status"] == "ok"
        assert control["invariant_violations"] == 0


class TestSmallMsgSanity:
    def test_smoke_scenario_yields_clean_metrics(self, tmp_path):
        """One real (non-drill) scenario through the pool end to end:
        metrics present, digest recorded, zero violations."""
        specs = [ExperimentSpec(
            name="mini", scenario="smoke-incast",
            grid={"fragment_bytes": [16 * KB]}, seeds=[0],
            timeout_s=60.0, max_events=2_000_000)]
        units, store, summary = sweep(tmp_path, specs, jobs=1)

        record = records_by_run(store)["mini/fragment_bytes=16384/s0"]
        assert record["status"] == "ok"
        assert record["digest"]
        assert record["events"] > 0
        assert record["invariant_violations"] == 0
        assert record["metrics"]["messages"] > 0
        assert summary.ok == 1 and summary.records == 1
