"""Unit tests for the DES core: engine, events, processes."""

import heapq

import pytest

from repro.sim import (
    AnyOf,
    Event,
    Simulator,
    SimulationError,
    Timeout,
)


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_timeout_advances_time():
    sim = Simulator()

    def proc():
        yield sim.timeout(100)
        return sim.now

    p = sim.spawn(proc())
    sim.run()
    assert p.value == 100
    assert sim.now == 100


def test_processes_interleave_in_time_order():
    sim = Simulator()
    order = []

    def proc(name, delay):
        yield sim.timeout(delay)
        order.append(name)

    sim.spawn(proc("b", 20))
    sim.spawn(proc("a", 10))
    sim.spawn(proc("c", 30))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_insertion_order():
    sim = Simulator()
    order = []

    def proc(name):
        yield sim.timeout(5)
        order.append(name)

    for name in "abcd":
        sim.spawn(proc(name))
    sim.run()
    assert order == list("abcd")


def test_process_return_value_propagates():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        return 42

    def parent():
        value = yield sim.spawn(child())
        return value + 1

    p = sim.spawn(parent())
    sim.run()
    assert p.value == 43


def test_manual_event_delivers_value():
    sim = Simulator()
    ev = sim.event("door")
    seen = []

    def waiter():
        value = yield ev
        seen.append(value)

    sim.spawn(waiter())

    def opener():
        yield sim.timeout(10)
        ev.succeed("open")

    sim.spawn(opener())
    sim.run()
    assert seen == ["open"]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_failed_event_raises_inside_process():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(waiter())
    ev.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("died")

    sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_observed_process_exception_is_not_fatal():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("died")

    def parent():
        try:
            yield sim.spawn(bad())
        except RuntimeError:
            return "handled"

    p = sim.spawn(parent())
    sim.run()
    assert p.value == "handled"


def test_run_until_limit_stops_early():
    sim = Simulator()

    def proc():
        yield sim.timeout(1000)

    sim.spawn(proc())
    sim.run(until=300)
    assert sim.now == 300


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(7)
        return "done"

    p = sim.spawn(proc())
    assert sim.run_until_event(p) == "done"


def test_run_until_event_detects_deadlock():
    sim = Simulator()
    ev = sim.event("never")

    def waiter():
        yield ev

    p = sim.spawn(waiter())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_event(p)


def test_anyof_fires_on_first():
    sim = Simulator()

    def proc():
        t1 = Timeout(sim, 10, "fast")
        t2 = Timeout(sim, 100, "slow")
        result = yield AnyOf(sim, [t1, t2])
        return list(result.values())

    p = sim.spawn(proc())
    sim.run_until_event(p)
    assert p.value == ["fast"]
    assert sim.now >= 10


def test_allof_waits_for_all():
    sim = Simulator()

    def proc():
        t1 = sim.timeout(10)
        t2 = sim.timeout(100)
        yield sim.all_of([t1, t2])
        return sim.now

    p = sim.spawn(proc())
    sim.run()
    assert p.value == 100


def test_call_after_runs_callback():
    sim = Simulator()
    hits = []
    sim.call_after(25, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [25]


def test_call_at_rejects_past():
    sim = Simulator()

    def proc():
        yield sim.timeout(100)

    sim.spawn(proc())
    sim.run()
    with pytest.raises(ValueError):
        sim.call_at(50, lambda: None)


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


@pytest.mark.parametrize("target", [None, 42], ids=["bare-yield", "yield-42"])
def test_yielding_non_event_fails_process(target):
    # The check of record for non-Event yields: a process that yields
    # anything but an Event dies with a TypeError at resume time.
    sim = Simulator()

    def pinger():
        yield sim.timeout(5)
        yield target

    proc = sim.spawn(pinger())
    with pytest.raises(SimulationError):
        sim.run()
    assert sim.now == 5
    assert isinstance(proc.value, TypeError)
    assert f"yielded {target!r}" in str(proc.value)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Timeout(sim, -1)


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_every_pending_entry_sits_on_one_heap_in_key_order():
    """Pending entries are ``(time, sequence, fn, arg)`` — ``fn`` None for
    an event — and every one of them, zero-delay ones included, sits on
    the one heap: popping a copy of it yields them in ``(time, sequence)``
    order, bare entries and events interleaved, and that is the order in
    which they fire."""
    sim = Simulator()
    fired = []
    timeout = sim.timeout(5)
    done = sim.event().succeed("ok")
    failed = sim.event()
    failed.defused = True
    failed.fail(RuntimeError("expected"))

    def proc():
        yield timeout

    p = sim.spawn(proc())
    sim.schedule(0, fired.append, "bare-now")
    sim.schedule(3, fired.append, "bare-later")
    pending = list(sim._heap)
    order = [heapq.heappop(pending) for _ in range(len(sim._heap))]
    assert [entry[:2] for entry in order] == [(0, 2), (0, 3), (0, 4),
                                              (0, 5), (3, 6), (5, 1)]
    assert [entry[2:] for entry in order[:2]] == [(None, done),
                                                  (None, failed)]
    assert order[2][3].callbacks == [p._resume]         # the bootstrap
    assert order[3][2:] == (fired.append, "bare-now")
    assert order[4][2:] == (fired.append, "bare-later")
    assert order[5][2:] == (None, timeout)
    sim.run_until_event(done)                   # fires the heap's head
    assert done.processed and sim._heap[0][:2] == (0, 3)
    sim.run()
    assert fired == ["bare-now", "bare-later"]
    assert sim.now == 5 and not p.alive


# ------------------------------------------------------------- tie auditing

def test_tie_audit_counts_tied_pops():
    from repro.sim import TieAudit
    sim = Simulator()
    sim.enable_tie_audit()
    order = []

    def waiter(tag, delay):
        yield sim.timeout(delay)
        order.append(tag)

    # Three events at t=10 (one tie group of 3), one alone at t=20.
    for tag in "abc":
        sim.spawn(waiter(tag, 10))
    sim.spawn(waiter("d", 20))
    sim.run()

    assert order == ["a", "b", "c", "d"]        # insertion order within ties
    audit = sim.tie_audit
    assert isinstance(audit, TieAudit)
    assert audit.pops > 0
    assert audit.tie_groups >= 1
    assert audit.max_group >= 3
    assert audit.anomalies == 0


def test_tie_audit_detects_out_of_order_sequence():
    from repro.sim import TieAudit
    audit = TieAudit()
    ev = Event(Simulator(), name="x")
    audit.observe(10, 1, None, ev)
    audit.observe(10, 5, None, ev)
    audit.observe(10, 3, None, ev)        # tie resolved against insertion order
    assert audit.ties == 2
    assert audit.anomalies == 1


def test_tie_audit_digest_reflects_schedule():
    from repro.sim import TieAudit
    a, b, c = TieAudit(), TieAudit(), TieAudit()
    ev = Event(Simulator(), name="x")
    a.observe(10, 1, None, ev)
    b.observe(10, 1, None, ev)
    c.observe(11, 1, None, ev)            # different time -> different digest
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_tie_audit_hashes_bare_entries_as_timeouts_and_counts_owners():
    """A bare entry hashes as the Timeout it replaced, so digests of
    schedules that only swapped timers for entries stay valid; the owner
    table names the bare entry's function, a ``call_at`` callable, or a
    process's generator."""

    def run(bare):
        sim = Simulator()
        audit = sim.enable_tie_audit()
        hits = []
        for delay in (3, 0, 7):
            if bare:
                sim.schedule(delay, hits.append, delay)
            else:
                sim.timeout(delay).callbacks.append(
                    lambda _ev, d=delay: hits.append(d))
        sim.run()
        return audit, hits

    bare, bare_hits = run(bare=True)
    timed, timed_hits = run(bare=False)
    assert bare_hits == timed_hits == [0, 3, 7]
    assert bare.digest() == timed.digest()
    assert bare.owners == {"list.append": 3}

    sim = Simulator()
    audit = sim.enable_tie_audit()

    def pinger():
        yield sim.timeout(4)

    def tick():
        pass

    sim.spawn(pinger())
    sim.call_at(2, tick)
    sim.run()
    assert audit.owners == {
        "test_tie_audit_hashes_bare_entries_as_timeouts_and_counts_owners"
        ".<locals>.pinger": 2,
        "test_tie_audit_hashes_bare_entries_as_timeouts_and_counts_owners"
        ".<locals>.tick": 1,
        "(Process, no callback)": 1}
    assert audit.owners.most_common(1)[0][1] == 2


def test_enable_tie_audit_is_idempotent():
    sim = Simulator()
    assert sim.tie_audit is None
    first = sim.enable_tie_audit()
    assert sim.enable_tie_audit() is first
    assert sim.tie_audit is first
