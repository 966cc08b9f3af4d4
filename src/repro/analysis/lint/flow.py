"""Generator-CFG primitives for the flow-sensitive XR4xx rules.

The model (documented in DESIGN.md §"Interprocedural analysis"): a
generator-based sim process is a CFG whose extra edge kind is the
**preemption edge** — every ``yield`` and every ``yield from`` whose
delegate may itself yield is a point where the whole rest of the
simulation runs before the next statement.  Any state read before a
preemption edge is *stale* after it; any resource held across one can be
orphaned by the exception the resumed yield re-raises.

Rules do not build explicit basic blocks.  They walk statement lists in
source order (which inside one block *is* execution order) with three
shared vocabularies defined here:

* ``attr_paths_read`` — the dotted object paths a condition depends on
  (``len(self._pool) >= self.capacity`` reads ``self._pool`` and
  ``self.capacity``).  Bare locals are excluded on purpose: no other
  process can mutate a local between yields, so a "stale" local is not a
  race.
* ``is_preemption`` / ``preemption_in`` — the yield-as-preemption-edge
  test, call-graph-refined for ``yield from``.
* mutation detection — writes and growth-method calls against a path.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Sequence, Set

from repro.analysis.lint.callgraph import (FUNC_DEFS, SCOPE_BARRIERS,
                                           CallGraph, last_component)

#: method names that mutate their receiver in place (growth and shrink —
#: either invalidates a guard computed before a preemption edge)
MUTATOR_METHODS = {
    "append", "appendleft", "add", "insert", "extend", "push",
    "pop", "popleft", "remove", "discard", "clear", "update",
    "setdefault", "put_nowait",
}


def attr_path(node: ast.AST) -> Optional[str]:
    """Dotted path of a pure Name/Attribute chain: ``self._pool`` →
    ``"self._pool"``; anything else (calls, subscripts) → None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def attr_paths_read(expr: ast.AST) -> Set[str]:
    """Every dotted attribute path loaded anywhere in an expression.

    Only paths with at least one dot qualify — shared state lives behind
    an object, and bare locals cannot race (see module docstring).
    """
    paths: Set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute):
            path = attr_path(node)
            if path is not None and "." in path:
                paths.add(path)
    return paths


def identifier_parts(expr: ast.AST) -> Set[str]:
    """Lower-cased underscore-split words of every identifier in ``expr``
    (``close_drain_timeout_ns`` contributes ``close``, ``drain``,
    ``timeout``, ``ns``) — the vocabulary XR403 classifies loop exit
    conditions with."""
    words: Set[str] = set()
    for node in ast.walk(expr):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None:
            words.update(part for part in name.lower().split("_") if part)
    return words


def normalize(expr: ast.AST) -> str:
    """Structural fingerprint of an expression (position-free)."""
    return ast.dump(expr)


def condition_fingerprints(test: ast.AST) -> Set[str]:
    """The whole test plus each comparison inside it, normalized.

    A re-check may restate only the load-bearing comparison of a compound
    guard (``a >= b`` out of ``a >= b or flag``), so both granularities
    participate in re-check matching.
    """
    prints = {normalize(test)}
    for node in ast.walk(test):
        if isinstance(node, ast.Compare):
            prints.add(normalize(node))
    return prints


def is_preemption(node: ast.AST, graph: Optional[CallGraph]) -> bool:
    """Is this Yield/YieldFrom a preemption edge?

    Plain ``yield`` always is.  ``yield from <call>`` is unless the call
    graph proves every function of that name yield-free; without a graph
    the conservative answer is yes.
    """
    if isinstance(node, ast.Yield):
        return True
    if isinstance(node, ast.YieldFrom):
        if graph is None or not isinstance(node.value, ast.Call):
            return True
        return graph.may_preempt(last_component(node.value.func))
    return False


def iter_own_scope(node: ast.AST) -> Iterator[ast.AST]:
    """All descendants without entering nested defs/classes/lambdas."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        sub = stack.pop()
        yield sub
        if not isinstance(sub, SCOPE_BARRIERS):
            stack.extend(ast.iter_child_nodes(sub))


def preemption_in(nodes: Iterable[ast.AST],
                  graph: Optional[CallGraph]) -> Optional[ast.AST]:
    """First preemption edge found under ``nodes`` (own scope), or None."""
    for node in nodes:
        for sub in iter_own_scope(node):
            if isinstance(sub, (ast.Yield, ast.YieldFrom)) \
                    and is_preemption(sub, graph):
                return sub
    return None


def is_generator(func: ast.AST) -> bool:
    """Does the function body contain a yield at its own scope?"""
    return any(isinstance(node, (ast.Yield, ast.YieldFrom))
               for node in iter_own_scope(func))


def functions_in(tree: ast.Module) -> Iterator[ast.AST]:
    """Every (possibly nested) function definition in a module."""
    for node in ast.walk(tree):
        if isinstance(node, FUNC_DEFS):
            yield node


def acquisition_call(value: ast.AST) -> Optional[ast.Call]:
    """The Call inside ``x = obj.alloc(...)`` / ``x = yield from
    obj.alloc(...)`` / ``x = yield obj.create_qp(...)``, if any."""
    node = value
    if isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value is not None:
        node = node.value
    if isinstance(node, ast.Await):
        node = node.value
    return node if isinstance(node, ast.Call) else None


def is_terminal(body: Sequence[ast.stmt]) -> bool:
    """Does a block unconditionally leave the enclosing flow?"""
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Break, ast.Continue))


def mutates_path(stmt: ast.stmt, paths: Set[str]) -> Optional[str]:
    """The guarded path a statement writes/grows, or None.

    Catches direct rebinding (``self.x = ...``, ``self.x += ...``),
    subscript stores (``self.x[k] = ...``), and in-place mutator calls
    (``self.x.append(...)``).
    """
    targets: List[ast.AST] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    for target in targets:
        if isinstance(target, (ast.Starred,)):
            target = target.value
        if isinstance(target, ast.Subscript):
            target = target.value
        path = attr_path(target)
        if path is not None and path in paths:
            return path
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func = stmt.value.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
            path = attr_path(func.value)
            if path is not None and path in paths:
                return path
    return None


def block_lists(stmt: ast.stmt) -> List[List[ast.stmt]]:
    """The statement lists a compound statement owns, in execution order
    (Try: body, else, handlers, finally)."""
    if isinstance(stmt, (ast.If, ast.While, ast.For, ast.AsyncFor)):
        return [stmt.body, stmt.orelse]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [stmt.body]
    if isinstance(stmt, ast.Try):
        blocks = [stmt.body, stmt.orelse]
        blocks.extend(handler.body for handler in stmt.handlers)
        blocks.append(stmt.finalbody)
        return blocks
    return []
