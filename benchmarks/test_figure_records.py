"""A figure test fails on a bad run; it never hangs on one.

``await_records`` is what every figure test reads its runs through.  Fed
a store holding each shape of run that did not end well, it must fail the
test with the run's status and reason — never return, and never wait on a
sweep that has already exited.
"""

import re

import pytest

from benchmarks.conftest import await_records
from repro.fleet import ResultStore
from repro.fleet.runner import run_record

TASK = {"run_id": "fig/-/s0", "experiment": "fig", "scenario": "fig",
        "params": {}, "seed": 0}


def store_with(tmp_path, *records):
    store = ResultStore(tmp_path)
    for record in records:
        store.append(record)
    store.close()
    return store


def not_running():
    return False


@pytest.mark.parametrize("status, reason", [
    ("crashed", "worker died mid-run (exitcode 13)"),
    ("timeout", "run exceeded timeout_s=60.0; worker killed"),
    ("failed", "RuntimeError: injected failure"),
    ("cancelled", "sweep interrupted"),
])
def test_a_run_that_did_not_end_ok_fails_with_its_reason(tmp_path, status,
                                                         reason):
    store = store_with(tmp_path, run_record(TASK, status, reason))
    with pytest.raises(pytest.fail.Exception,
                       match=re.escape(f"fig/-/s0: {status}: {reason}")):
        await_records(store, [TASK["run_id"]], not_running)


def test_a_run_without_a_record_fails_once_the_sweep_exited(tmp_path):
    store = store_with(tmp_path, run_record(TASK, "ok", ""))
    with pytest.raises(pytest.fail.Exception, match="fig/-/s1: no record"):
        await_records(store, [TASK["run_id"], "fig/-/s1"], not_running)


@pytest.mark.parametrize("field", ["invariant_violations", "tie_anomalies"])
def test_an_ok_run_with_a_dirty_gate_fails(tmp_path, field):
    record = run_record(TASK, "ok", "")
    record[field] = 2
    store = store_with(tmp_path, record)
    with pytest.raises(pytest.fail.Exception, match="fig/-/s0: .*2 "):
        await_records(store, [TASK["run_id"]], not_running)


def test_clean_runs_come_back_in_the_order_asked(tmp_path):
    first = run_record(TASK, "ok", "")
    second = run_record(dict(TASK, run_id="fig/-/s1", seed=1), "ok", "")
    store = store_with(tmp_path, second, first)
    records = await_records(store, ["fig/-/s0", "fig/-/s1"], not_running)
    assert [record["seed"] for record in records] == [0, 1]
