"""Regression tests for event-loop correctness fixes.

A failure the engine promised to surface must not leak out as silence,
and events carry no instance dict.
"""

import pytest

from repro.sim import SimulationError, Simulator
from repro.sim.events import Event


# ------------------------------------------------- late AnyOf child failure
def test_anyof_late_child_failure_escalates():
    """A child failing *after* the AnyOf fired must not vanish.

    The condition's registered callback counts as an observer, so without
    explicit handling the failure would be silently defused.
    """
    sim = Simulator()
    fast = sim.timeout(1)
    slow = sim.event("slow")
    sim.any_of([fast, slow])
    sim.call_after(5, lambda: slow.fail(RuntimeError("late boom")))

    with pytest.raises(SimulationError, match="failed after condition"):
        sim.run()


def test_anyof_late_defused_failure_is_recorded():
    """An explicitly defused late failure is swallowed — but with a trace."""
    sim = Simulator()
    fast = sim.timeout(1)
    slow = sim.event("slow")
    condition = sim.any_of([fast, slow])
    slow.defused = True
    sim.call_after(5, lambda: slow.fail(RuntimeError("expected boom")))

    sim.run()
    assert condition.ok
    assert condition.late_failures == [("slow", repr(RuntimeError("expected boom")))]


def test_anyof_late_child_success_stays_silent():
    sim = Simulator()
    fast = sim.timeout(1)
    slow = sim.event("slow")
    condition = sim.any_of([fast, slow])
    sim.call_after(5, lambda: slow.succeed("fine"))

    sim.run()
    assert condition.ok
    assert condition.late_failures == []


def test_allof_late_failure_escalates_too():
    """AllOf can trigger (via failure) while a sibling is still pending."""
    sim = Simulator()
    failing = sim.event("failing")
    failing.defused = True                 # observed through the condition
    pending = sim.event("pending")
    condition = sim.all_of([failing, pending])
    condition.defused = True               # we inspect it by hand below
    failing.fail(RuntimeError("first"))
    sim.call_after(3, lambda: pending.fail(RuntimeError("second")))

    with pytest.raises(SimulationError, match="failed after condition"):
        sim.run()
    assert not condition.ok


def test_waited_anyof_still_delivers_first_failure():
    """The pre-trigger path is unchanged: first failure fails the AnyOf."""
    sim = Simulator()
    doomed = sim.event("doomed")
    condition = sim.any_of([doomed, sim.timeout(10)])
    doomed.fail(RuntimeError("early"))

    def waiter():
        with pytest.raises(RuntimeError, match="early"):
            yield condition

    proc = sim.spawn(waiter())
    sim.run()
    assert proc.ok


# ------------------------------------------------------------- slot hygiene
def test_events_have_no_instance_dict():
    """The hot classes really are slotted (a __dict__ would defeat it)."""
    sim = Simulator()
    for obj in (Event(sim), sim.timeout(1), sim.any_of([sim.timeout(1)]),
                sim.spawn(iter_once(sim))):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        with pytest.raises(AttributeError):
            obj.arbitrary_attribute = 1


def iter_once(sim):
    yield sim.timeout(1)


def test_lazy_names_still_render():
    sim = Simulator()
    assert sim.timeout(7).name == "timeout(7)"
    assert sim.event().name == "Event"
    assert sim.event("explicit").name == "explicit"
    assert sim.spawn(iter_once(sim)).name == "iter_once"
    assert sim.spawn(iter_once(sim), name="given").name == "given"
    sim.run()
