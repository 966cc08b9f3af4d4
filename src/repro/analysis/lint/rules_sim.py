"""Sim-hygiene rules (XR3xx).

Processes inside the discrete-event simulator must cooperate with it:
blocking the host thread stalls every simulated host at once, yielding a
non-event crashes the process with a ``TypeError`` at resume time, and a
handler broad enough to catch :class:`~repro.sim.engine.SimulationError`
or :class:`~repro.analysis.invariants.InvariantError` turns a detected
corruption back into silence.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.analysis.lint.core import FileContext, Finding, Rule, register
from repro.analysis.lint.flow import (functions_in, is_generator,
                                      iter_own_scope)

#: host-blocking calls by resolved dotted name
_BLOCKING_EXACT = {
    "time.sleep", "os.system", "os.wait", "os.waitpid", "input",
    "socket.socket", "socket.create_connection", "select.select",
    "urllib.request.urlopen",
}
_BLOCKING_PREFIXES = ("subprocess.", "requests.", "http.client.")

#: event-factory methods whose presence marks a generator as a sim process
_EVENT_FACTORIES = {"timeout", "event", "any_of", "all_of", "get", "put"}

_BROAD_TYPES = {"Exception", "BaseException"}


@register
class BlockingCallRule(Rule):
    """No host-blocking calls — they freeze simulated time itself."""

    name = "blocking-call"
    code = "XR301"
    summary = ("time.sleep()/subprocess/socket call blocks the host "
               "thread; use sim.timeout / simulated I/O")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee, resolved = ctx.resolved_name(node.func)
            if callee is None:
                continue
            # Builtins (input) resolve without an import; module-dotted
            # patterns must come through one, or a local named `requests`
            # would match the HTTP library.
            if not resolved and callee != "input":
                continue
            if callee in _BLOCKING_EXACT \
                    or callee.startswith(_BLOCKING_PREFIXES):
                yield self.finding(
                    ctx, node,
                    f"{callee}() blocks the host thread, stalling every "
                    f"simulated host at once; processes advance time only "
                    f"via sim.timeout()/events")


def _yield_nodes(func: ast.AST) -> List[ast.Yield]:
    return [node for node in iter_own_scope(func)
            if isinstance(node, ast.Yield)]


def _is_sim_process(func: ast.AST) -> bool:
    """A generator yielding at least one event-factory call result."""
    for node in iter_own_scope(func):
        value = None
        if isinstance(node, ast.Yield):
            value = node.value
        elif isinstance(node, ast.YieldFrom):
            continue
        if isinstance(value, ast.Call) \
                and isinstance(value.func, ast.Attribute) \
                and value.func.attr in _EVENT_FACTORIES:
            return True
    return False


@register
class NonEventYieldRule(Rule):
    """Sim processes must yield Event instances, never bare constants.

    ``yield`` / ``yield 5`` inside a process resumes through
    :meth:`~repro.sim.process.Process._resume`, which kills the process
    with ``TypeError: processes must yield Event instances`` — but only at
    runtime, on the path that reaches it.  Flagged statically instead.
    Pure data generators (every yield a constant) are left alone.
    """

    name = "non-event-yield"
    code = "XR302"
    summary = ("bare/constant yield inside a sim-process generator "
               "(processes must yield Events)")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_sim_process(node):
                continue
            for yield_node in _yield_nodes(node):
                value = yield_node.value
                if value is None or isinstance(value, ast.Constant):
                    shown = ("bare yield" if value is None
                             else f"yield {value.value!r}")
                    yield self.finding(
                        ctx, yield_node,
                        f"{shown} in sim process {node.name!r}: the engine "
                        f"rejects non-Event yields with a TypeError at "
                        f"resume time; yield sim.timeout(...)/an Event")


@register
class GeneratorAnnotatedNoneRule(Rule):
    """A generator must not be annotated ``-> None``.

    Calling a generator function returns a generator object, always — an
    annotation of ``-> None`` is a lie the sim makes expensive: readers
    (and the ``yield from`` call sites the annotation documents) see a
    plain method, so a refactor that "simplifies" a call to
    ``self._finish_rendezvous(seq)`` without the ``yield from`` silently
    drops every event the body would have scheduled.  The pre-PR-10
    ``_finish_rendezvous`` carried exactly this annotation.  mypy strict
    catches the class too, but mypy does not run over this tree in CI —
    this rule pins the convention: annotate sim processes with
    ``ProcessGenerator`` (or a ``Generator``/``Iterator`` type).
    """

    name = "generator-annotated-none"
    code = "XR304"
    summary = ("generator function annotated `-> None` (calling it "
               "returns a generator; the annotation hides the required "
               "`yield from`)")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for func in functions_in(tree):
            if not isinstance(func, ast.FunctionDef):
                continue        # async generators annotate differently
            returns = func.returns
            if returns is None or not is_generator(func):
                continue
            if isinstance(returns, ast.Constant) and returns.value is None:
                yield self.finding(
                    ctx, returns,
                    f"{func.name!r} is a generator (it yields) but is "
                    f"annotated `-> None`: calling it returns a generator "
                    f"object, and the annotation invites call sites to "
                    f"drop the required `yield from`; annotate it "
                    f"ProcessGenerator")


def _broad_names(ctx: FileContext, type_node: ast.AST) -> Set[str]:
    """Which of Exception/BaseException an except clause catches."""
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    caught: Set[str] = set()
    for node in nodes:
        name = ctx.qualified_name(node)
        if name in _BROAD_TYPES:
            caught.add(name)
    return caught


@register
class SwallowedErrorRule(Rule):
    """No handler broad enough to eat SimulationError/InvariantError.

    A bare ``except:`` or an ``except Exception:`` that never re-raises
    also catches the simulator's own failure signals — a detected
    invariant violation or deadlock silently becomes "the probe failed".
    Catch the specific errors the code actually expects
    (``ChannelBroken``, ``ConnectError``, ``OutOfMemory``, ...), or
    re-raise.
    """

    name = "swallowed-error"
    code = "XR303"
    summary = ("bare except / except Exception without re-raise swallows "
               "SimulationError and InvariantError")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx, node,
                    "bare except: catches everything, including "
                    "SimulationError and InvariantError; name the "
                    "exceptions this site expects")
                continue
            caught = _broad_names(ctx, node.type)
            if not caught:
                continue
            if any(isinstance(sub, ast.Raise) for sub in ast.walk(node)):
                continue        # inspects/logs, then re-raises: fine
            shown = "/".join(sorted(caught))
            yield self.finding(
                ctx, node,
                f"except {shown}: without re-raise swallows "
                f"SimulationError and InvariantError along with the "
                f"error it meant to handle; catch the specific "
                f"exceptions instead")
