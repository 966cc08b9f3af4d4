"""XR-Serve fleet scenarios: wiring, reproducibility, interference."""

import pytest

from repro.fleet.experiments import specs_for
from repro.fleet.runner import execute_unit, resolve_scenario
from repro.serving import ServingHarness
from tests.conftest import run_scenario_inline

QUICK = {"duration_ms": 20, "window_ms": 5}


def test_scenarios_resolve_by_name():
    assert resolve_scenario("serving-mix")
    assert resolve_scenario("serving-interference")


def test_serving_spec_set_exists():
    specs = specs_for(["serving"], quick=True)
    names = {spec.name for spec in specs}
    assert names == {"serving-mix", "serving-interference"}
    for spec in specs:
        assert spec.expand(), "spec expands to no runs"


def test_mix_metrics_and_windows():
    record = run_scenario_inline("serving-mix",
                                 {"policy": "round-robin", **QUICK}, seed=0)
    metrics = record["metrics"]
    assert metrics["mix_completed"] > 0
    assert metrics["mix_errors"] == 0
    assert metrics["mix_p99_us"] > 0
    assert metrics["mix_window_digest"]
    rows = record["windows"]
    assert rows and all(row["tenant"] == "mix" for row in rows)
    assert any(row["stable"] for row in rows)


def test_same_seed_identical_window_digest_and_schedule():
    a = run_scenario_inline("serving-mix", {"policy": "sharded", **QUICK},
                            seed=3)
    b = run_scenario_inline("serving-mix", {"policy": "sharded", **QUICK},
                            seed=3)
    assert a["metrics"]["mix_window_digest"] == \
        b["metrics"]["mix_window_digest"]
    assert a["digest"] == b["digest"]
    assert a["windows"] == b["windows"]


def test_mix_window_digest_is_the_recorders_digest(monkeypatch):
    # The record's digest is the tenant's explicit fingerprint, not a
    # summary field: capture the run's tenant and ask it directly.
    tenants = []
    add_tenant = ServingHarness.add_tenant

    def capture(self, *args, **kwargs):
        tenant = add_tenant(self, *args, **kwargs)
        tenants.append(tenant)
        return tenant

    monkeypatch.setattr(ServingHarness, "add_tenant", capture)
    record = run_scenario_inline("serving-mix", {"policy": "sharded", **QUICK},
                                 seed=3)
    (tenant,) = tenants
    assert "window_digest" not in tenant.summary()
    assert record["metrics"]["mix_window_digest"] == tenant.recorder.digest()


def test_interference_degrades_victim_p99():
    quiet = run_scenario_inline("serving-interference",
                                {"aggressor": 0, **QUICK}, seed=0)
    noisy = run_scenario_inline("serving-interference",
                                {"aggressor": 1, **QUICK}, seed=0)
    p99_quiet = quiet["metrics"]["b_p99_us"]
    p99_noisy = noisy["metrics"]["b_p99_us"]
    assert p99_noisy > 2 * p99_quiet, (
        f"aggressor did not degrade the victim: {p99_quiet} -> {p99_noisy}")
    # The degradation is attributed: some traced segment inflated too.
    seg_keys = [key for key in noisy["metrics"] if key.startswith("seg_")]
    assert seg_keys
    inflated = [key for key in seg_keys
                if noisy["metrics"][key] > 2 * quiet["metrics"][key]]
    assert inflated, "no traced segment accounts for the p99 inflation"


def test_interference_traces_are_tenant_tagged():
    record = run_scenario_inline("serving-interference",
                                 {"aggressor": 1, **QUICK}, seed=0)
    traces = record["traces"]
    tagged = [trace for trace in traces if trace.get("tenant") == "B"]
    assert tagged, "no tenant-tagged trace records"
    # Only the victim samples; nothing should carry another tenant tag.
    assert all(trace.get("tenant", "B") == "B" for trace in traces)


def test_failed_tenant_spec_is_a_failed_run_not_a_crash():
    record = execute_unit({
        "run_id": "t/serving-mix/bad", "experiment": "t",
        "scenario": "serving-mix",
        "params": {"policy": "no-such-policy", **QUICK},
        "seed": 0, "timeout_s": None, "max_events": None,
    })
    assert record["status"] == "failed"
    assert "policy" in record["reason"]
