"""Generator-coroutine processes.

A process is a Python generator that yields :class:`~repro.sim.events.Event`
instances.  Yielding suspends the process until the event fires; the event's
value is sent back into the generator (or its exception thrown in).

A :class:`Process` is itself an :class:`Event` that fires when the generator
returns, so processes can wait for each other (fork/join) simply by yielding
the child process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running coroutine inside the simulation.

    Create via :meth:`Simulator.spawn`.  The process-as-event fires with the
    generator's return value, or fails with its uncaught exception.
    """

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: str = "") -> None:
        super().__init__(sim, name=name)
        if not hasattr(generator, "send"):
            raise TypeError(
                f"spawn() needs a generator, got {type(generator).__name__}; "
                "did you forget to call the generator function?")
        self._generator = generator
        # Bootstrap: resume once at the current instant.  The start event
        # is anonymous (naming it would cost an f-string per spawn) and
        # born triggered, so succeed()'s pending-state checks are skipped.
        start = Event(sim)
        start._ok = True
        start._value = None
        start.callbacks.append(self._resume)
        sim.schedule(0, None, start)

    def _default_name(self) -> str:
        return getattr(self._generator, "__name__", "process")

    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def _resume(self, event: Event) -> None:
        # The hottest callback in the simulator: every yield in every
        # process funnels through here, so it reads private slots
        # (``_ok``/``_value``) instead of the validating properties and
        # registers itself on the target without a helper frame.
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # xr-lint: disable=swallowed-error
            # Intentionally broad: this is the process-death trap.  The
            # failure is not swallowed — fail() re-surfaces it through the
            # process-as-event (and the engine raises if nobody observes it).
            self.fail(exc)
            return
        # Duck-typed fast path: reading ``callbacks`` replaces an
        # isinstance check on every yield; anything that is not an Event
        # lands in the except branch and gets the full diagnostic.
        try:
            callbacks = target.callbacks
        except AttributeError:
            self._generator.close()
            self.fail(TypeError(
                f"process {self.name!r} yielded {target!r}; "
                "processes must yield Event instances"))
            return
        if callbacks is not None:
            callbacks.append(self._resume)
        else:                       # already fired: resume immediately
            self._resume(target)
