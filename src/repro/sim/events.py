"""Awaitable events for the simulation engine.

A process (generator) suspends by yielding an :class:`Event` (or a subclass).
The engine resumes the process when the event *fires* — either successfully,
delivering a value, or with a failure, raising the stored exception inside
the process.

Events are the hottest allocation in the simulator after the engine's
bare entries (every process timeout, wake-up and bootstrap is one), so
the classes here carry
``__slots__`` and compute their display names lazily: the name only
matters in error messages and debug output, never on the fire path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.engine import Simulator

# Sentinel distinguishing "no value yet" from a delivered ``None``.
_PENDING = object()


class SimulationError(RuntimeError):
    """An unhandled failure escaped a process with no observer.

    Lives here (not in ``engine``) because the event layer raises it too;
    ``repro.sim.engine`` re-exports it, which is the canonical import site.
    """


class Event:
    """A one-shot occurrence processes can wait on.

    An event moves through three states: *pending* (just created),
    *triggered* (scheduled to fire, value decided), and *processed* (its
    callbacks have run).  ``succeed``/``fail`` decide the value; the engine
    invokes callbacks when the event's scheduled time arrives.

    Setting :attr:`defused` on a *failed* event tells the engine the
    failure is expected and observed out-of-band, so the engine must not
    escalate it to :class:`SimulationError`.
    """

    __slots__ = ("sim", "_name", "callbacks", "_value", "_ok", "defused")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self._name = name
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self.defused = False

    @property
    def name(self) -> str:
        """Display name, computed lazily (only error paths ever need it)."""
        return self._name or self._default_name()

    def _default_name(self) -> str:
        return type(self).__name__

    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event has fired)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError(f"event {self.name!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The delivered value (or stored exception).  Valid once triggered."""
        if self._value is _PENDING:
            raise RuntimeError(f"event {self.name!r} has not been triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully; it fires at the current instant."""
        if self._value is not _PENDING:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self._ok = True
        self._value = value
        self.sim.schedule(0, None, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure; waiters see ``exception`` raised."""
        if self._value is not _PENDING:
            raise RuntimeError(f"event {self.name!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim.schedule(0, None, self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {self.name!r} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ("_delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__: timeouts are the hottest allocation in
        # the whole simulator and are born already-triggered, so the
        # pending-state dance of succeed() is pure overhead here.  The
        # ``defused`` slot is deliberately left unset: every reader is
        # guarded by ``not _ok`` and a timeout can never fail.
        self.sim = sim
        self._name = ""
        self.callbacks = []
        self._ok = True
        self._value = value
        self._delay = delay
        # int() keeps a float delay out of the heap keys.
        sim.schedule(int(delay), None, self)

    def _default_name(self) -> str:
        return f"timeout({self._delay})"


class _Condition(Event):
    """Base for AnyOf / AllOf composition over a set of events."""

    __slots__ = ("events", "_done", "late_failures")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        self._done = 0
        #: (event name, repr(exception)) for defused children that failed
        #: after this condition had already triggered.
        self.late_failures: List[Tuple[str, str]] = []
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.callbacks is None:         # already fired
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            if event._ok is False:
                # The condition fired without us, so no waiter will ever
                # see this failure through the condition's value.  Our
                # registered callback counts as an observer, which would
                # defuse what the engine should have raised — so either
                # honour an explicit defusal (recording why) or escalate.
                if event.defused:
                    self.late_failures.append(
                        (event.name, repr(event.value)))
                    return
                raise SimulationError(
                    f"child event {event.name!r} failed after condition "
                    f"{self.name!r} had already triggered: {event.value!r}"
                ) from event.value
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._done += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect(self) -> dict:
        return {
            event: event.value
            for event in self.events
            if event.processed and event.ok
        }


class AnyOf(_Condition):
    """Fires when any child event fires (or fails on the first failure)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done >= 1


class AllOf(_Condition):
    """Fires when every child event has fired successfully."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done == len(self.events)
