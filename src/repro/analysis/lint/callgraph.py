"""Project-wide call graph for the interprocedural XR4xx rules.

The XR1xx–XR3xx families look at one module at a time.  The concurrency
rules cannot: whether ``yield from self.cm.connect(...)`` is a preemption
point depends on whether *any* ``connect`` in the project yields, and
whether it is a live exception edge depends on whether ``connect`` can
raise something the project actually handles.  This module builds that
index once per lint run, from the already-parsed trees — no imports, no
execution, so it works over broken or cycle-ridden code exactly like the
rest of xr-lint.

Resolution is by *method name* (the last dotted component), the same
convention the XR2xx pairing vocabulary uses: ``self.cm.connect`` maps to
every function/method named ``connect`` anywhere in the linted set, and
properties are unioned conservatively.  Two fixpoints are computed at
build time:

* **may-preempt** — a function suspends its caller if it contains a
  ``yield``, or ``yield from``-delegates (transitively) to one that does.
  Unresolved names are assumed preempting: ``yield from`` of an unknown
  callee must be treated as a preemption edge.
* **may-raise-handled** — a function owns a live exception edge if it
  raises an exception class that some *specific* ``except`` clause in the
  linted set catches (``except ConnectError:`` counts; ``except
  Exception:`` does not), or ``yield from``-delegates to one that does.
  Exceptions nobody catches are fatal by project convention
  (InvariantError, assertion-style ValueErrors): a resource lost on a
  dying-simulation edge is not a leak worth a finding.

Precision therefore scales with the linted set — lint ``src tests
benchmarks examples`` together (as the CLI default, the self-check, and
CI all do) and the handled-exception vocabulary is complete.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: handlers broad enough to catch anything — they do not make an
#: exception class "handled" (XR303 already polices them), and a raise
#: beneath one does not propagate.
BROAD_HANDLERS = {"Exception", "BaseException"}

#: builtin exception classes never count as "handled": an in-tree
#: ``raise ValueError``/``KeyError`` is an assert-style programming-error
#: guard (fatal by project convention), not a protocol edge.  The
#: robustness story is carried by project-defined classes — ConnectError,
#: ChannelBroken, OutOfMemory, QpStateError, ... — and those are exactly
#: the names this set leaves in.
_BUILTIN_EXCEPTIONS = {
    name for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}

FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: nodes that open a scope of their own: a walk of one function's body
#: stops at them
SCOPE_BARRIERS = FUNC_DEFS + (ast.ClassDef, ast.Lambda)


def last_component(node: ast.AST) -> Optional[str]:
    """``self.cm.connect`` → ``connect``; ``connect`` → ``connect``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _handler_names(handler: ast.ExceptHandler) -> Set[str]:
    """Exception class names an ``except`` clause lists (last components)."""
    if handler.type is None:
        return set(BROAD_HANDLERS)     # bare except behaves like broad
    nodes = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    names: Set[str] = set()
    for node in nodes:
        name = last_component(node)
        if name is not None:
            names.add(name)
    return names


@dataclass
class FunctionInfo:
    """Per-function facts the fixpoints and rules consume."""

    name: str                     #: last component, e.g. ``put``
    yields: int = 0               #: own-scope ``yield`` count
    delegates: Set[str] = field(default_factory=set)
    #: callee names of own-scope ``yield from <call>`` expressions
    raised: Set[str] = field(default_factory=set)
    #: exception class names raised outside any matching local handler


class CallGraph:
    """Name-indexed project view with preempt/raise fixpoints."""

    def __init__(self) -> None:
        self.functions: List[FunctionInfo] = []
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        self.caught_exceptions: Set[str] = set()
        self._preempting: Set[str] = set()
        self._raising: Set[str] = set()

    # ------------------------------------------------------------- building
    @classmethod
    def build(cls, modules: Iterable[Tuple[str, ast.Module]]) -> "CallGraph":
        graph = cls()
        for _, tree in modules:
            graph._index_module(tree)
        graph._solve_preempt()
        graph._solve_raise()
        return graph

    def _index_module(self, tree: ast.Module) -> None:
        self._index_scope(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                self.caught_exceptions |= (_handler_names(node)
                                           - BROAD_HANDLERS
                                           - _BUILTIN_EXCEPTIONS)

    def _index_scope(self, scope: ast.AST) -> None:
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, FUNC_DEFS):
                self._index_function(node)
                self._index_scope(node)
            elif not isinstance(node, ast.Lambda):
                self._index_scope(node)

    def _index_function(self, func: ast.AST) -> None:
        info = FunctionInfo(name=func.name)
        self._scan_function(func, info, enclosing_tries=())
        self.functions.append(info)
        self.by_name.setdefault(info.name, []).append(info)

    def _scan_function(self, node: ast.AST, info: FunctionInfo,
                       enclosing_tries: Tuple[ast.Try, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, SCOPE_BARRIERS):
                continue
            if isinstance(child, ast.Yield):
                info.yields += 1
            elif isinstance(child, ast.YieldFrom):
                if isinstance(child.value, ast.Call):
                    name = last_component(child.value.func)
                    if name is not None:
                        info.delegates.add(name)
                else:
                    # `yield from some_iterable` — unresolvable, treat as
                    # a plain preemption source.
                    info.yields += 1
            elif isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc
                name = last_component(exc.func if isinstance(exc, ast.Call)
                                      else exc)
                if name is not None \
                        and not self._locally_caught(enclosing_tries, name):
                    info.raised.add(name)
            if isinstance(child, ast.Try):
                body_tries = (enclosing_tries + (child,) if child.handlers
                              else enclosing_tries)
                for stmt in child.body + child.orelse:
                    self._scan_function(stmt, info, body_tries)
                for handler in child.handlers:
                    for stmt in handler.body:
                        self._scan_function(stmt, info, enclosing_tries)
                for stmt in child.finalbody:
                    self._scan_function(stmt, info, enclosing_tries)
            else:
                self._scan_function(child, info, enclosing_tries)

    @staticmethod
    def _locally_caught(enclosing_tries: Tuple[ast.Try, ...],
                        name: str) -> bool:
        for try_node in enclosing_tries:
            for handler in try_node.handlers:
                caught = _handler_names(handler)
                if name in caught or caught & BROAD_HANDLERS:
                    return True
        return False

    # ------------------------------------------------------------ fixpoints
    def _solve_preempt(self) -> None:
        """Names whose functions can suspend a ``yield from`` caller; an
        unresolved delegate conservatively counts as preempting."""
        self._preempting = self._delegators(
            {info.name for info in self.functions if info.yields},
            unresolved=True)

    def _solve_raise(self) -> None:
        """Names whose functions may raise a *handled* exception class.

        Propagation follows ``yield from`` delegation only: generator
        delegation is transparent control flow, so the delegator's caller
        stands on the same exception edge.  Plain calls do NOT propagate —
        with name-based resolution one raising ``get`` would taint every
        ``get`` call site in the project, and each raising callee already
        gets flagged where it is called directly.
        """
        self._raising = self._delegators(
            {info.name for info in self.functions
             if info.raised & self.caught_exceptions}, unresolved=False)

    def _delegators(self, names: Set[str], unresolved: bool) -> Set[str]:
        """``names`` plus, to a fixpoint, every function that ``yield
        from``-delegates to one of them (or, with ``unresolved``, to a
        name no linted function has)."""
        changed = True
        while changed:
            changed = False
            for info in self.functions:
                if info.name not in names and any(
                        callee in names
                        or (unresolved and callee not in self.by_name)
                        for callee in info.delegates):
                    names.add(info.name)
                    changed = True
        return names

    # -------------------------------------------------------------- queries
    def may_preempt(self, name: Optional[str]) -> bool:
        """Can ``yield from <name>(...)`` suspend the caller?

        Unknown names answer True — an unresolved delegate must be treated
        as a preemption edge.  A resolved, provably yield-free callee
        answers False (the precision win the call graph buys).
        """
        if name is None or name not in self.by_name:
            return True
        return name in self._preempting

    def may_raise_handled(self, name: Optional[str]) -> bool:
        """Can calling ``<name>`` raise an exception the project handles?

        Unknown names answer False: we cannot prove a live exception edge
        through a callee we cannot see, and flagging on ignorance would
        drown the signal.
        """
        return name is not None and name in self._raising
