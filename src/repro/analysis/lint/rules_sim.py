"""Sim-hygiene rules (XR3xx).

Processes inside the discrete-event simulator must cooperate with it: a
generator annotated ``-> None`` invites a call site to drop its
``yield from``, and a handler broad enough to catch
:class:`~repro.sim.engine.SimulationError` or
:class:`~repro.analysis.invariants.InvariantError` turns a detected
corruption back into silence.  (Host-blocking calls are XR101; a
process that yields a non-Event is killed by ``Process._resume``.)
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.lint.callgraph import BROAD_HANDLERS
from repro.analysis.lint.core import FileContext, Finding, Rule, register
from repro.analysis.lint.flow import functions_in, is_generator


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
    return {name for name, _ in map(ctx.resolved_name, nodes)
            if name in BROAD_HANDLERS}


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
