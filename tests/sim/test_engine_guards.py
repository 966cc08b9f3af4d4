"""Runaway-run guards: event budgets and wall-clock deadlines.

Fleet workers arm these (:meth:`Simulator.set_guards`) before handing a
simulator to an arbitrary scenario; a pathological run must become a
:class:`GuardExceeded` with the pending-event state intact, never a hung
worker or pytest session.
"""

import pytest

from repro.sim import GuardExceeded, SimulationError, Simulator


def spinner(sim):
    """An infinite event churner: never drains, never advances far."""
    while True:
        yield sim.timeout(1)


def test_max_events_guard_trips():
    sim = Simulator()
    sim.spawn(spinner(sim))
    sim.set_guards(max_events=1_000)
    with pytest.raises(GuardExceeded, match="max_events"):
        sim.run()


def test_guard_exceeded_is_a_simulation_error():
    assert issubclass(GuardExceeded, SimulationError)


def test_guard_leaves_pending_events_intact():
    sim = Simulator()
    sim.spawn(spinner(sim))
    sim.set_guards(max_events=100)
    with pytest.raises(GuardExceeded):
        sim.run()
    # Disarmed, the simulation resumes where the guard stopped it: the
    # spinner's next tick is still queued.
    sim.set_guards()
    assert sim._heap
    before = sim.now
    sim.run(until=before + 50)
    assert sim.now == before + 50


def test_persistent_guard_spans_calls():
    sim = Simulator()
    sim.spawn(spinner(sim))
    sim.set_guards(max_events=100)
    with pytest.raises(GuardExceeded):
        while True:
            sim.run(until=sim.now + 10)
    before = sim.now
    with pytest.raises(GuardExceeded):
        sim.run(until=before + 10)        # ... and stays exhausted
    assert sim.now == before
    sim.set_guards()                      # disarm
    sim.run(until=sim.now + 10)           # runs freely again


def test_guard_budget_allows_completion():
    sim = Simulator()

    def finite():
        for _ in range(5):
            yield sim.timeout(3)
        return "done"

    proc = sim.spawn(finite())
    sim.set_guards(max_events=1_000)
    assert sim.run_until_event(proc) == "done"


def test_run_until_event_guard_trips():
    sim = Simulator()
    sim.spawn(spinner(sim))
    never = sim.event("never")
    sim.set_guards(max_events=500)
    with pytest.raises(GuardExceeded):
        sim.run_until_event(never)


def test_wall_deadline_guard_trips():
    sim = Simulator()
    sim.spawn(spinner(sim))
    # A deadline already in the past trips on the first wall-clock sample.
    sim.set_guards(wall_timeout_s=0.0)
    with pytest.raises(GuardExceeded, match="deadline"):
        sim.run()


def _pending(workers):
    return not all(worker.processed for worker in workers)


def _drain_by_run(sim, workers):
    sim.run()


def _drain_by_run_until(sim, workers):
    while _pending(workers):        # each stop restores the next event
        sim.run(until=sim.now + 5)


def _drain_by_run_until_event(sim, workers):
    for worker in workers:
        sim.run_until_event(worker)


@pytest.mark.parametrize("guards", [{}, {"max_events": 10_000}],
                         ids=["unguarded", "guarded"])
@pytest.mark.parametrize("drain", [_drain_by_run, _drain_by_run_until,
                                   _drain_by_run_until_event])
def test_guarded_run_matches_unguarded_schedule(drain, guards):
    """Every entry point, guarded or not, fires the same schedule."""

    def workload(sim):
        for index in range(50):
            yield sim.timeout(index % 7 + 1)

    def recycler(sim, laps=40):
        """A bare entry rescheduling itself from its own body, as the
        egress ports and the RNIC transmit engine do: the next entry is
        pushed while the current one is still firing."""
        done = sim.event("recycler-done")

        def lap(remaining):
            if remaining:
                sim.schedule(remaining % 3 + 1, lap, remaining - 1)
            else:
                done.succeed()

        sim.schedule(2, lap, laps - 1)
        return done

    def digest(drain, guards):
        sim = Simulator()
        audit = sim.enable_tie_audit()
        workers = [sim.spawn(workload(sim)) for _ in range(4)]
        workers.append(recycler(sim))
        sim.set_guards(**guards)
        drain(sim, workers)
        return audit.digest()

    assert digest(drain, guards) == digest(_drain_by_run, {})
