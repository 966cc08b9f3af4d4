"""The discrete-event simulation loop.

Entries fire in ``(time, sequence)`` order.  The sequence number is drawn
when an entry is scheduled, so simultaneous entries fire in scheduling
order — the determinism every digest in this project rests on.

Every entry is ``(time, sequence, fn, arg)``, made by one primitive,
:meth:`Simulator.schedule`.  A *bare* entry runs ``fn(arg)``: the timers
nobody waits on (port serialize and deliver, NIC occupancy, CQE pushes,
``call_at``) cost one tuple and one call, not a Timeout, a callbacks list
and a resume.  An *event* entry, ``(time, sequence, None, event)``, fires
the event's callbacks.  Every pending entry, zero-delay ones included,
sits on one ``heapq`` heap, so the engine is the ten-line ``heapq`` model
``tests/sim/test_engine_model.py`` checks it against, plus that dispatch.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.sim.events import AllOf, AnyOf, Event, SimulationError, Timeout
from repro.sim.process import Process, ProcessGenerator

__all__ = ["GuardExceeded", "SimulationError", "Simulator", "TieAudit"]

#: ``(time, sequence, fn, arg)``; see the module docstring
_Entry = Tuple[int, int, Optional[Callable[[Any], None]], Any]

_heappush = heapq.heappush

#: the target of a run that stops at no particular entry
_NEVER = object()

#: schedule lines a :class:`TieAudit` buffers per SHA-256 update
_AUDIT_CHUNK = 4096


class GuardExceeded(SimulationError):
    """A runaway-run guard tripped (event budget or wall-clock deadline).

    Raised *between* events — the heap is left intact, so a supervisor
    can inspect or even resume the simulation.  Fleet workers
    (``repro.fleet``) rely on this to turn a pathological scenario into a
    recorded failure instead of a hung worker process.
    """


def _host_clock() -> float:
    """Monotonic host seconds, used only by the runaway-run guards.

    Nothing simulated ever observes this value: a tripped deadline aborts
    the run with :class:`GuardExceeded`, it never steers behaviour.
    """
    return time.monotonic()  # xr-lint: disable=wall-clock


class _GuardState:
    """A runaway-run budget (see :meth:`Simulator.set_guards`).

    ``charge()`` is called once per fire-loop iteration *before* the next
    event is popped, so a raise leaves every pending event in place.  The
    wall clock is only sampled every 256 events — a guarded run pays one
    integer test per event and a clock read per quarter-kilobatch.
    """

    __slots__ = ("remaining", "deadline", "_tick")

    def __init__(self, max_events: Optional[int],
                 wall_timeout_s: Optional[float]) -> None:
        self.remaining: Optional[int] = max_events
        self.deadline: Optional[float] = (
            None if wall_timeout_s is None
            else _host_clock() + wall_timeout_s)
        self._tick = 0

    def charge(self) -> None:
        remaining = self.remaining
        if remaining is not None:
            if remaining <= 0:
                raise GuardExceeded(
                    "guard: max_events budget exhausted "
                    "(runaway simulation?)")
            self.remaining = remaining - 1
        if self.deadline is not None:
            self._tick += 1
            if (self._tick & 255) == 0 and _host_clock() > self.deadline:
                raise GuardExceeded(
                    "guard: wall-clock deadline exceeded "
                    "(runaway simulation?)")


def _call(fn: Callable[[], None]) -> None:
    """The bare-entry body behind :meth:`Simulator.call_at`: ``fn()``."""
    fn()


def _owner(fn: Optional[Callable[..., Any]], arg: Any) -> str:
    """Who a popped entry runs: a bare entry's ``fn`` (``call_at``'s
    callable), else the event's first callback (a process's generator)."""
    if fn is None:
        callbacks = arg.callbacks
        if not callbacks:
            return f"({type(arg).__name__}, no callback)"
        fn = callbacks[0]
        process = getattr(fn, "__self__", None)
        if isinstance(process, Process):
            fn = process._generator
    elif fn is _call:
        fn = arg
    return getattr(fn, "__qualname__", type(fn).__qualname__)


class TieAudit:
    """Debug-mode observer of the engine's same-instant tie-breaks.

    Ties are *normal* — many entries fire at the same instant — and the
    sequence number resolves them in scheduling order, which is what the
    determinism guarantee rests on.  The auditor makes that story
    measurable end to end:

    * ``ties`` / ``tie_groups`` / ``max_group`` quantify how much of a run
      rides on the tie-break (how fragile the schedule would be without it);
    * ``anomalies`` counts pops where a tie resolved *out of* scheduling
      order — always 0 unless a refactor breaks the heap key;
    * ``owners`` counts pops by who they run (:func:`_owner`): the
      events-by-owner table that says which layer a run's events go to;
    * ``digest()`` is a SHA-256 over the fired schedule, so two runs with
      one root seed can be compared bit-for-bit.

    The digest covers ``(time, event type)``, a bare entry hashing as the
    ``Timeout`` it replaced — deliberately not names: they embed entity
    ids (connection, channel, QP numbers), which say whose event it is,
    not when it fires.  Each pop's line is buffered and the buffer fed to
    SHA-256 in chunks; the hash is a stream, so the digest is the same.
    """

    def __init__(self) -> None:
        # Imported here so that only an audited run maps OpenSSL.
        import hashlib

        self.ties = 0            #: pops at the same instant as the prior
        self.tie_groups = 0      #: runs of >=2 tied pops
        self.max_group = 1       #: largest tied run
        self.anomalies = 0       #: ties resolved against scheduling order
        self.owners: Counter = Counter()     #: pops by owner qualname
        self._last_when = -1
        self._last_seq = -1
        self._group = 1
        self._hash = hashlib.sha256()
        self._lines: List[str] = []

    @property
    def pops(self) -> int:
        """Entries fired while auditing."""
        return self.owners.total()

    def observe(self, when: int, seq: int, fn: Optional[Callable[..., Any]],
                arg: Any) -> None:
        if fn is None:
            kind = type(arg).__name__
            owner = _owner(fn, arg)
        else:
            kind = "Timeout"
            if fn is _call:
                owner = _owner(fn, arg)
            else:
                # What _owner returns for a bare entry, without the call.
                try:
                    owner = fn.__qualname__
                except AttributeError:
                    owner = type(fn).__qualname__
        # The literal 1 is the priority every event carried while the key
        # still had a priority axis; hashing it keeps every committed
        # digest valid.
        lines = self._lines
        lines.append(f"{when}:1:{kind}\n")
        if len(lines) >= _AUDIT_CHUNK:
            self._flush()
        self.owners[owner] += 1
        if when == self._last_when:
            self.ties += 1
            self._group += 1
            if self._group == 2:
                self.tie_groups += 1
            self.max_group = max(self.max_group, self._group)
            if seq <= self._last_seq:
                self.anomalies += 1
        else:
            self._last_when = when
            self._group = 1
        self._last_seq = seq

    def _flush(self) -> None:
        self._hash.update("".join(self._lines).encode())
        self._lines.clear()

    def digest(self) -> str:
        """Hex digest of the schedule so far (order- and time-sensitive)."""
        self._flush()
        return self._hash.hexdigest()

    def summary(self) -> str:
        owners = " ".join(f"{name}={count}"
                          for name, count in self.owners.most_common(5))
        return (f"tie-audit: pops={self.pops} ties={self.ties} "
                f"groups={self.tie_groups} max_group={self.max_group} "
                f"anomalies={self.anomalies}\n"
                f"tie-audit: top owners: {owners}")


class Simulator:
    """Owns simulated time and the pending-event heap.

    Typical use::

        sim = Simulator()

        def pinger():
            yield sim.timeout(5)
            return "pong"

        proc = sim.spawn(pinger())
        sim.run()
        assert proc.value == "pong"
    """

    # ``_sequence``/``_now``/``_heap`` are the most-read attributes in the
    # program (every schedule and every fire touches them); slots keep
    # them out of a dict lookup.
    __slots__ = ("_now", "_heap", "_sequence", "tie_audit", "_guards",
                 "_ids")

    def __init__(self) -> None:
        self._now: int = 0
        #: every pending entry ``(time, sequence, fn, arg)``
        self._heap: List[_Entry] = []
        self._sequence: int = 0
        self.tie_audit: Optional[TieAudit] = None
        self._guards: Optional[_GuardState] = None
        self._ids: Counter = Counter()

    def next_id(self, namespace: str) -> int:
        """The run's next id (1, 2, …) in ``namespace``, e.g. "channel"."""
        self._ids[namespace] += 1
        return self._ids[namespace]

    def set_guards(self, max_events: Optional[int] = None,
                   wall_timeout_s: Optional[float] = None) -> None:
        """Arm runaway-run guards; ``set_guards()`` disarms.

        The budgets span *all* subsequent :meth:`run` /
        :meth:`run_until_event` / :meth:`step` calls on this simulator:
        ``max_events`` bounds the total number of events fired,
        ``wall_timeout_s`` starts a host wall-clock countdown now.
        Exceeding either raises :class:`GuardExceeded` with every pending
        event still queued.  An unguarded simulator pays one ``is not
        None`` test per event.
        """
        if max_events is None and wall_timeout_s is None:
            self._guards = None
        else:
            self._guards = _GuardState(max_events, wall_timeout_s)

    def enable_tie_audit(self) -> TieAudit:
        """Turn the tie-break auditor on (idempotent); returns it.

        Enable before running anything — the digest only covers events
        fired while the auditor is active.
        """
        if self.tie_audit is None:
            self.tie_audit = TieAudit()
        return self.tie_audit

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # ------------------------------------------------------------- factories
    def event(self, name: str = "") -> Event:
        """Create a pending event to be triggered manually."""
        return Event(self, name=name)

    def timeout(self, delay: int) -> Timeout:
        """An event firing ``delay`` ns from now."""
        return Timeout(self, delay)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def schedule(self, delay: int, fn: Optional[Callable[[Any], None]],
                 arg: Any = None) -> None:
        """Run ``fn(arg)`` ``delay`` ns from now: the one primitive every
        entry goes through (``fn`` None fires the event ``arg``).

        Callers pass an exact ``int`` delay ≥ 0 — nothing is checked here;
        :meth:`call_at` / :meth:`call_after` validate.  A bare entry's
        ``arg`` must not be an event someone runs :meth:`run_until_event`
        on: the fire loop recognises that target by identity.
        """
        sequence = self._sequence = self._sequence + 1
        _heappush(self._heap, (self._now + delay, sequence, fn, arg))

    def call_at(self, when: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at absolute time ``when`` (≥ now)."""
        if when < self._now:
            raise ValueError(f"call_at({when}) is in the past (now={self._now})")
        self.schedule(int(when - self._now), _call, fn)

    def call_after(self, delay: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` ns."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self.schedule(int(delay), _call, fn)

    # ------------------------------------------------------------- execution
    def _drive(self, target: Optional[Event], bound: Optional[int]) -> bool:
        """The one pop-and-fire loop behind :meth:`step`, :meth:`run` and
        :meth:`run_until_event`.

        Fires entries in ``(time, sequence)`` order until the entry whose
        ``arg`` is ``target`` has fired (``None``: never) — only then is
        the result True — nothing is pending, or the next entry lies
        beyond simulated time ``bound``; that entry stays queued and the
        clock is left for the caller to settle.  The target stop is by
        identity, so :meth:`step` can name a bare entry by its ``arg``.

        The :meth:`set_guards` budget is charged before each pop, so a
        :class:`GuardExceeded` leaves every pending event in place (and the
        one event a ``bound`` stop puts back has been charged).

        Everything the loop touches is hoisted into locals: this is the
        hottest loop in the project.  The auditor must be enabled before
        running (see :meth:`enable_tie_audit`), so one load outside the
        loop is equivalent.
        """
        guards = self._guards
        heap = self._heap
        heappop = heapq.heappop
        audit = self.tie_audit
        # One comparison per heap pop instead of two: an unset bound
        # becomes an unreachable one, an unset target an unmatchable one.
        latest = float("inf") if bound is None else bound
        if target is None:
            target = _NEVER
        while heap:
            if guards is not None:
                guards.charge()
            when, seq, fn, arg = heappop(heap)
            if when > latest:
                # Pops are time-monotone, so checking after the pop is
                # equivalent to peeking first — and skips a heap[0][0]
                # index chain on every iteration.  Restore the entry.
                _heappush(heap, (when, seq, fn, arg))
                return False
            if audit is not None:
                audit.observe(when, seq, fn, arg)
            self._now = when
            if fn is not None:
                fn(arg)
            else:
                callbacks = arg.callbacks
                arg.callbacks = None
                if callbacks:
                    for callback in callbacks:
                        callback(arg)
                elif not arg._ok and not arg.defused:
                    raise SimulationError(
                        f"unhandled failure in {arg.name!r}: {arg.value!r}"
                    ) from arg.value
            if arg is target:
                return True
        return False

    def step(self) -> None:
        """Fire the single next entry."""
        if not self._heap:
            raise SimulationError("step() on an empty event heap")
        # The head is what the loop pops first, and it stops right after.
        self._drive(self._heap[0][3], None)

    def run(self, until: Optional[int] = None) -> int:
        """Run until the heap drains or simulated time reaches ``until``.

        Returns the simulated time at which the run stopped.
        """
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        self._drive(None, until)
        if until is not None:
            self._now = until
        return self._now

    def run_until_event(self, event: Event,
                        limit: Optional[int] = None) -> Any:
        """Run until ``event`` fires; returns its value or raises its error.

        ``limit`` bounds simulated time; exceeding it raises
        :class:`SimulationError`.
        """
        if event.callbacks is not None:         # i.e. not yet processed
            # Mark the event observed so a failure is delivered here rather
            # than raised as an unhandled error inside the fire loop.
            event.callbacks.append(lambda _ev: None)
            if not self._drive(event, limit):
                if self._heap:                  # stopped at the bound
                    raise SimulationError(
                        f"time limit {limit} exceeded waiting for "
                        f"{event.name!r}")
                raise SimulationError(
                    f"deadlock: no pending events but {event.name!r} "
                    f"never fired")
        if not event._ok:
            raise event._value
        return event._value
