"""Determinism rules (XR1xx).

The simulator's bit-reproducibility contract: the only time source is
``sim.now``, the only randomness is a seeded
:class:`~repro.sim.rng.RngStream`, and nothing observable may depend on
CPython object identity (``id()``/``hash()`` values change between
interpreter runs, and iterating a set of them yields a different order
every run even when membership is identical).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.analysis.lint.core import (FileContext, Finding, Rule,
                                      contains_id_call, register)
from repro.analysis.lint.flow import functions_in

#: wall-clock reads that leak host time into simulated behaviour
_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: module-level stdlib RNG entry points (process-global hidden state)
_STDLIB_RANDOM = {
    "random.random", "random.randint", "random.randrange", "random.uniform",
    "random.choice", "random.choices", "random.shuffle", "random.sample",
    "random.expovariate", "random.gauss", "random.normalvariate",
    "random.seed", "random.getrandbits", "random.betavariate",
    "random.paretovariate",
}

#: numpy global-state RNG entry points (same hazard, numpy flavour)
_NUMPY_RANDOM_PREFIX = "numpy.random."
_NUMPY_RANDOM_OK = {
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.SeedSequence", "numpy.random.PCG64",
    "numpy.random.Philox",
}


@register
class WallClockRule(Rule):
    """No host wall-clock reads — simulated time comes from ``sim.now``."""

    name = "wall-clock"
    code = "XR101"
    summary = ("wall-clock read (time.time / datetime.now / ...) in "
               "sim-reachable code; use sim.now")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee, resolved = ctx.resolved_name(node.func)
            if resolved and callee in _WALL_CLOCK:
                yield self.finding(
                    ctx, node,
                    f"{callee}() reads the host wall clock; simulated "
                    f"components must use sim.now (ns)")


@register
class GlobalRandomRule(Rule):
    """No module-global RNG state — randomness must come from a seeded
    stream so two runs with one root seed are identical."""

    name = "global-random"
    code = "XR102"
    summary = ("module-level random.* / numpy.random.* call or unseeded "
               "default_rng(); use RngRegistry.stream(name)")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee, resolved = ctx.resolved_name(node.func)
            if callee is None or not resolved:
                continue
            if callee in _STDLIB_RANDOM:
                yield self.finding(
                    ctx, node,
                    f"{callee}() draws from the process-global stdlib RNG; "
                    f"use a named RngStream from the cluster's RngRegistry")
            elif callee == "random.Random" and not node.args \
                    and not node.keywords:
                yield self.finding(
                    ctx, node,
                    "random.Random() without a seed is entropy-seeded; "
                    "pass an explicit seed or use RngRegistry")
            elif callee == "numpy.random.default_rng" and not node.args \
                    and not node.keywords:
                yield self.finding(
                    ctx, node,
                    "numpy.random.default_rng() without a seed is "
                    "entropy-seeded; derive the seed from the root seed")
            elif callee.startswith(_NUMPY_RANDOM_PREFIX) \
                    and callee not in _NUMPY_RANDOM_OK:
                yield self.finding(
                    ctx, node,
                    f"{callee}() uses numpy's global RNG state; "
                    f"use a seeded Generator (RngStream)")


def _is_id_keyed_collection(node: ast.AST) -> bool:
    """A set/dict display or call whose elements/keys come from ``id()``."""
    if isinstance(node, ast.SetComp):
        return contains_id_call(node.elt)
    if isinstance(node, ast.DictComp):
        return contains_id_call(node.key)
    if isinstance(node, ast.Set):
        return any(contains_id_call(elt) for elt in node.elts)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset") and node.args:
        return contains_id_call(node.args[0])
    return False


#: consuming calls whose output order follows the argument's iteration order
_ORDER_SENSITIVE_CALLS = {"sorted", "list", "tuple", "min", "max"}


@register
class IdOrderRule(Rule):
    """No iteration over collections keyed by object identity.

    ``{id(x) for x in ...}`` is fine as a membership probe (the
    ``MemCache.shrink`` pattern) but iterating it — in a ``for``, a
    comprehension, or via ``sorted``/``list``/``min``/``max`` — makes
    behaviour depend on CPython address assignment, which differs between
    runs even under one root seed.
    """

    name = "id-order"
    code = "XR103"
    summary = ("iteration over an id()-keyed set/dict: order depends on "
               "object addresses, not the root seed")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for func in functions_in(tree):
            yield from self._check_scope(ctx, func.body)
        yield from self._check_scope(
            ctx, [n for n in tree.body
                  if not isinstance(n, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))])

    def _check_scope(self, ctx: FileContext,
                     body: List[ast.stmt]) -> Iterator[Finding]:
        tainted: Set[str] = set()
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign) \
                        and _is_id_keyed_collection(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            tainted.add(target.id)
                yield from self._check_iteration(ctx, node, tainted)

    def _iter_message(self, how: str) -> str:
        return (f"{how} an id()-keyed collection: identity values are "
                f"fresh every interpreter run, so this order is "
                f"non-deterministic; key by a stable field "
                f"(buffer_id, qpn, channel_id) instead")

    def _check_iteration(self, ctx: FileContext, node: ast.AST,
                         tainted: Set[str]) -> Iterator[Finding]:
        def is_tainted(expr: ast.AST) -> bool:
            return _is_id_keyed_collection(expr) or (
                isinstance(expr, ast.Name) and expr.id in tainted)

        if isinstance(node, ast.For) and is_tainted(node.iter):
            yield self.finding(ctx, node.iter,
                               self._iter_message("for-loop over"))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                if is_tainted(gen.iter):
                    yield self.finding(ctx, gen.iter,
                                       self._iter_message("comprehension over"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _ORDER_SENSITIVE_CALLS \
                and node.args and is_tainted(node.args[0]):
            yield self.finding(
                ctx, node, self._iter_message(f"{node.func.id}() over"))


def _key_is_identity(keyword: ast.keyword) -> bool:
    """``key=id`` / ``key=hash`` / ``key=lambda x: id(x)`` and friends."""
    value = keyword.value
    if isinstance(value, ast.Name) and value.id in ("id", "hash"):
        return True
    if isinstance(value, ast.Lambda):
        body = value.body
        return (isinstance(body, ast.Call)
                and isinstance(body.func, ast.Name)
                and body.func.id in ("id", "hash"))
    return False


@register
class HashOrderRule(Rule):
    """No ordering by ``hash()`` or ``id()`` of objects."""

    name = "hash-order"
    code = "XR104"
    summary = "sorted()/sort()/min()/max() keyed by hash() or id()"

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            is_sorted_like = (
                isinstance(node.func, ast.Name)
                and node.func.id in ("sorted", "min", "max"))
            is_sort_method = (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "sort")
            if not (is_sorted_like or is_sort_method):
                continue
            for keyword in node.keywords:
                if keyword.arg == "key" and _key_is_identity(keyword):
                    yield self.finding(
                        ctx, node,
                        "ordering by object identity/hash changes between "
                        "interpreter runs; sort by a stable attribute")


def _counters(body: List[ast.stmt], ctx: FileContext) -> Set[str]:
    """Names a module or class body binds to ``itertools.count(...)``."""
    return {target.id for stmt in body if isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Call)
            and ctx.qualified_name(stmt.value.func) == "itertools.count"
            for target in stmt.targets if isinstance(target, ast.Name)}


@register
class ClassCounterRule(Rule):
    """No counter that outlives a run: class- or module-level state.

    ``XrPerf._sender_seq += 1`` style state survives across driver
    instances in one process, so the Nth run of a scenario sees different
    RNG stream names than the 1st — same root seed, different behaviour.
    So is ``next()`` on a class- or module-level ``itertools.count``: keep
    the counter on the object whose namespace it numbers.
    """

    name = "class-counter"
    code = "XR105"
    summary = ("ClassName.attr mutated, or next() on a class- or module-"
               "level counter: cross-run state breaks seed reproducibility")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        shared = {name: f"module-level {name!r}"
                  for name in _counters(tree.body, ctx)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            shared.update((f"{base}.{name}", f"class-level {node.name}.{name}")
                          for name in _counters(node.body, ctx)
                          for base in (node.name, "self", "cls"))
            class_level: Set[str] = set()
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            class_level.add(target.id)
                elif isinstance(stmt, ast.AnnAssign) \
                        and isinstance(stmt.target, ast.Name):
                    class_level.add(stmt.target.id)
            yield from self._check_mutations(ctx, node, class_level)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "next" and node.args:
                dotted, imported = ctx.resolved_name(node.args[0])
                where = shared.get(dotted or "") or (
                    f"another module's {dotted!r}" if imported else "")
                if where:
                    yield self.finding(ctx, node, (
                        f"next() on {where} outlives the run; keep the "
                        f"counter on the object whose namespace it numbers"))

    def _check_mutations(self, ctx: FileContext, cls: ast.ClassDef,
                         class_level: Set[str]) -> Iterator[Finding]:
        for node in ast.walk(cls):
            if not isinstance(node, ast.AugAssign):
                continue
            target = node.target
            if isinstance(target, ast.Attribute) \
                    and isinstance(target.value, ast.Name) \
                    and target.value.id == cls.name \
                    and target.attr in class_level:
                yield self.finding(
                    ctx, node,
                    f"{cls.name}.{target.attr} is class-level state mutated "
                    f"at runtime; a second driver in the same process "
                    f"diverges from a fresh one under the same seed — make "
                    f"it per-instance")
