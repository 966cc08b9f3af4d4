"""Every trace number in a run record is xr_trace's own fold.

A traced run's ``trace`` section is :func:`analyze` over the run's own
trace lines, and the scenario metrics built from traces are nearest-rank
percentiles over the same lines — exact observed values, so a stage that
takes no time reads zero.
"""

from functools import lru_cache

import pytest

from repro.analysis.stats import nearest_rank
from repro.analysis.tracing import analyze
from repro.fleet.experiments import specs_for
from tests.conftest import run_scenario_inline


def quick_units(*experiments):
    """(scenario, params, seed) of every quick-sweep run of ``experiments``."""
    return [(spec.scenario, unit.params, unit.seed)
            for spec in specs_for(["all"], quick=True)
            if spec.name in experiments for unit in spec.expand()]


def unit_id(unit):
    scenario, params, _ = unit
    return scenario + "[" + ",".join(f"{k}={v}" for k, v in params) + "]"


@lru_cache(maxsize=None)
def run(scenario, params, seed):
    return run_scenario_inline(scenario, dict(params), seed=seed)


TRACED = quick_units("trace-rpc", "serving-interference")
SETUP = quick_units("ctrl-plane-setup")


@pytest.mark.parametrize("unit", TRACED, ids=unit_id)
def test_trace_section_is_the_xr_trace_fold(unit):
    record = run(*unit)
    fold = analyze({}, record["traces"], slowest=0)
    assert set(record["trace"]) == set(fold)
    assert record["trace"]["segments"] == fold["segments"]
    assert record["trace"]["critical_path"] == fold["critical_path"]


@pytest.mark.parametrize("unit", TRACED, ids=unit_id)
def test_zero_time_stages_read_zero(unit):
    segments = run(*unit)["trace"]["segments"]
    for stage in ("flowctl_queue", "rx_deliver", "window_ready"):
        assert segments[stage]["count"] > 0
        assert segments[stage]["p99_ns"] == 0


def test_traced_rpc_p99_is_nearest_rank_over_client_requests():
    (unit,) = quick_units("trace-rpc")
    record = run(*unit)
    totals = sorted(line["total_ns"] for line in record["traces"]
                    if line["kind"] == "REQUEST" and line["complete"])
    assert record["metrics"]["client_p99_total_us"] == \
        round(nearest_rank(totals, 0.99) / 1000, 3)


@pytest.mark.parametrize("unit", SETUP, ids=unit_id)
def test_setup_percentiles_are_nearest_rank_over_setup_records(unit):
    record = run(*unit)
    setups = [line for line in record["traces"]
              if line["view"] == "setup" and line["complete"]]
    totals = sorted(line["total_ns"] for line in setups)
    metrics = record["metrics"]
    assert metrics["setup_traces"] == len(setups) > 0
    for pct in (10, 25, 50, 75, 90, 99):
        assert metrics[f"setup_p{pct}_us"] == \
            round(nearest_rank(totals, pct / 100) / 1000, 1)
    qp_setup = sorted(duration for line in setups
                      for stage, duration in line["spans"]
                      if stage == "qp_setup")
    assert metrics["qp_setup_p50_us"] == \
        round(nearest_rank(qp_setup, 0.50) / 1000, 2)
