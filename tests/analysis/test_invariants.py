"""InvariantRegistry: modes, module hooks, deep checks, Monitor wiring."""

import pytest

from repro.analysis import invariants
from repro.analysis.invariants import (InvariantError, InvariantRegistry,
                                       verify_context)
from repro.analysis.monitor import Monitor
from tests.xrdma.conftest import connect_pair


# ----------------------------------------------------------------- registry

def test_fatal_mode_raises_at_the_call_site():
    registry = InvariantRegistry(mode="fatal")
    with pytest.raises(InvariantError):
        registry.check(False, "unit.bad", "boom")
    assert registry.counts["unit.bad"] == 1


def test_count_mode_records_and_continues():
    registry = InvariantRegistry(mode="count")
    assert registry.check(True, "unit.ok")
    assert not registry.check(False, "unit.bad", lambda: "lazy detail")
    assert not registry.check(False, "unit.bad")
    assert registry.total == 2
    assert registry.counts["unit.bad"] == 2
    assert ("unit.bad", "lazy detail") in registry.details
    assert not registry.ok


def test_note_never_raises_even_in_fatal_mode():
    registry = InvariantRegistry(mode="fatal")
    registry.note("unit.recorded", "call site raises its own error")
    assert registry.counts["unit.recorded"] == 1


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        InvariantRegistry(mode="warn")


# ---------------------------------------------------------- module-level hook

def test_install_uninstall_roundtrip(fatal_invariants):
    assert invariants.current() is fatal_invariants
    assert invariants.uninstall() is fatal_invariants
    assert invariants.current() is None
    invariants.install(fatal_invariants)
    assert invariants.current() is fatal_invariants


def test_module_hook_is_noop_without_registry(fatal_invariants):
    invariants.uninstall()
    try:
        assert not invariants.enabled()
        # Violations pass through silently — library users pay nothing.
        assert not invariants.check(False, "unit.unnoticed")
        invariants.note("unit.unnoticed")
    finally:
        invariants.install(fatal_invariants)
    assert fatal_invariants.counts["unit.unnoticed"] == 0


def test_fatal_hooks_fire_inside_protocol_code(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster)
    client_ch.window.acked = 7            # corrupt: acked beyond seq
    with pytest.raises(InvariantError):
        client_ch.window.next_seq()


# -------------------------------------------------------------- deep checks

def test_verify_context_clean_on_healthy_pair(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster)
    assert verify_context(client) == []
    assert verify_context(server) == []


def test_verify_context_reports_corrupted_budget(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster)
    registry = InvariantRegistry(mode="count")
    client.wr_budget.in_use += 1          # simulated double-acquire drift
    try:
        found = verify_context(client, registry)
    finally:
        client.wr_budget.in_use -= 1
    assert "flowctl.budget_mismatch" in {name for name, _ in found}
    assert registry.counts["flowctl.budget_mismatch"] == 1


# ------------------------------------------------------------ Monitor wiring

def test_monitor_samples_violation_series(cluster, fatal_invariants):
    client, server, client_ch, server_ch = connect_pair(cluster)
    monitor = Monitor(cluster.sim, cluster.stats)
    monitor.attach(client)
    registry = invariants.install(mode="count")
    try:
        monitor.sample_context(client)
        registry.note("unit.bad", "drift")
        monitor.sample_context(client)
    finally:
        invariants.install(fatal_invariants)
    series = monitor.series[f"ctx{client.ctx_id}.invariant_violations"]
    assert [value for _, value in series] == [0, 1]
