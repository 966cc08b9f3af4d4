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
from collections import deque
from typing import Dict, FrozenSet, Iterator, List, Optional, Set

from repro.analysis.lint.callgraph import FUNC_DEFS
from repro.analysis.lint.core import FileContext, Finding, Rule, register

_WALL_CLOCK = ("reads the host wall clock; simulated components must use "
               "sim.now (ns)")
_GLOBAL_RNG = ("draws from the process-global stdlib RNG; use a named "
               "RngStream from the cluster's RngRegistry")
_NUMPY_RNG = ("uses numpy's global RNG state; use a seeded Generator "
              "(RngStream)")
_UNSEEDED = ("without a seed is entropy-seeded; pass an explicit seed "
             "derived from the root seed, or use RngRegistry")
_BLOCKING = ("blocks the host thread, stalling every simulated host at "
             "once; processes advance time only via sim.timeout()/events")

#: resolved callee -> why calling it breaks a run.  A key ending in "."
#: covers its whole module, a None entry exempts one name from its
#: module's key, and an ``_UNSEEDED`` callee is fine once given a seed.
_HOST_CALLS: Dict[str, Optional[str]] = {
    **dict.fromkeys((
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.clock_gettime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today"), _WALL_CLOCK),
    **dict.fromkeys((
        "random.random", "random.randint", "random.randrange",
        "random.uniform", "random.choice", "random.choices",
        "random.shuffle", "random.sample", "random.expovariate",
        "random.gauss", "random.normalvariate", "random.seed",
        "random.getrandbits", "random.betavariate",
        "random.paretovariate"), _GLOBAL_RNG),
    "numpy.random.": _NUMPY_RNG,
    **dict.fromkeys(("numpy.random.Generator", "numpy.random.SeedSequence",
                     "numpy.random.PCG64", "numpy.random.Philox"), None),
    **dict.fromkeys(("random.Random", "numpy.random.default_rng"),
                    _UNSEEDED),
    **dict.fromkeys((
        "time.sleep", "os.system", "os.wait", "os.waitpid", "input",
        "socket.socket", "socket.create_connection", "select.select",
        "urllib.request.urlopen", "subprocess.", "requests.",
        "http.client."), _BLOCKING),
}


def _host_call(callee: str, call: ast.Call) -> Optional[str]:
    """Why calling ``callee`` this way reads host state, or None: the
    callee's own entry, else that of its nearest listed module."""
    parts = callee.split(".")
    keys = [callee] + [".".join(parts[:n]) + "."
                       for n in range(len(parts) - 1, 0, -1)]
    message = next((_HOST_CALLS[key] for key in keys if key in _HOST_CALLS),
                   None)
    if message is _UNSEEDED and (call.args or call.keywords):
        return None
    return message


@register
class HostCallRule(Rule):
    """No call that reads or waits on host state: the wall clock, a
    process-global or unseeded RNG, or a host-blocking syscall.

    ``_HOST_CALLS`` is the one table: time comes from ``sim.now``,
    randomness from a seeded stream, waiting from ``sim.timeout``.  A
    module-dotted callee must resolve through an import of this file (a
    local list named ``requests`` is not the HTTP library); the builtin
    ``input`` needs none.
    """

    name = "host-call"
    code = "XR101"
    summary = ("wall-clock read, global or unseeded RNG draw, or "
               "host-blocking call; use sim.now, RngRegistry.stream(name), "
               "sim.timeout")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee, resolved = ctx.resolved_name(node.func)
            if callee is None or not (resolved or callee == "input"):
                continue
            message = _host_call(callee, node)
            if message is not None:
                yield self.finding(ctx, node, f"{callee}() {message}")


def contains_id_call(node: ast.AST) -> bool:
    """True if any sub-expression is a call to the ``id`` builtin."""
    return any(isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
               and sub.func.id == "id" for sub in ast.walk(node))


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


def _key_is_identity(call: ast.Call) -> bool:
    """``key=id`` / ``key=hash`` / ``key=lambda x: id(x)`` and friends."""
    for keyword in call.keywords:
        value = keyword.value
        if isinstance(value, ast.Lambda):
            value = value.body.func if isinstance(value.body, ast.Call) \
                else None
        if keyword.arg == "key" and isinstance(value, ast.Name) \
                and value.id in ("id", "hash"):
            return True
    return False


#: consuming calls whose output order follows the argument's iteration order
_ORDER_SENSITIVE_CALLS = {"sorted", "list", "tuple", "min", "max"}


@register
class IdentityOrderRule(Rule):
    """Nothing ordered by object identity.

    ``id()`` and ``hash()`` of objects are fresh every interpreter run,
    so two runs under one root seed diverge when an order depends on
    them.  Two shapes do: iterating an ``id()``-keyed collection (a
    ``for``, a comprehension, ``sorted``/``list``/``min``/``max``), and
    ordering by ``key=id`` / ``key=hash``.  ``{id(x) for x in ...}`` as a
    membership probe (the ``MemCache.shrink`` pattern) is fine.  Each
    function is its own scope: it sees the names its enclosing scopes
    bound to an id()-keyed collection, never a sibling's.
    """

    name = "identity-order"
    code = "XR103"
    summary = ("iteration over an id()-keyed set/dict, or sorted()/sort()/"
               "min()/max() keyed by id() or hash(): order depends on "
               "object addresses, not the root seed")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        return self._check_scope(ctx, tree.body, frozenset())

    def _check_scope(self, ctx: FileContext, body: List[ast.stmt],
                     outer: FrozenSet[str]) -> Iterator[Finding]:
        """Every node of one scope, statement by statement in
        ``ast.walk`` order; nested functions follow, with this scope's
        taint."""
        tainted = set(outer)
        nested: List[ast.AST] = []
        for stmt in body:
            todo = deque([stmt])
            while todo:
                node = todo.popleft()
                if isinstance(node, FUNC_DEFS):
                    nested.append(node)
                    continue
                todo.extend(ast.iter_child_nodes(node))
                if isinstance(node, ast.Assign) \
                        and _is_id_keyed_collection(node.value):
                    tainted.update(target.id for target in node.targets
                                   if isinstance(target, ast.Name))
                yield from self._check_node(ctx, node, tainted)
        for func in nested:
            yield from self._check_scope(ctx, func.body, frozenset(tainted))

    def _iter_message(self, how: str) -> str:
        return (f"{how} an id()-keyed collection: identity values are "
                f"fresh every interpreter run, so this order is "
                f"non-deterministic; key by a stable field "
                f"(buffer_id, qpn, channel_id) instead")

    def _check_node(self, ctx: FileContext, node: ast.AST,
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
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else None
            if called in _ORDER_SENSITIVE_CALLS and node.args \
                    and is_tainted(node.args[0]):
                yield self.finding(
                    ctx, node, self._iter_message(f"{called}() over"))
            elif (called in ("sorted", "min", "max") or (
                    isinstance(func, ast.Attribute) and func.attr == "sort")) \
                    and _key_is_identity(node):
                yield self.finding(
                    ctx, node,
                    "ordering by object identity/hash changes between "
                    "interpreter runs; sort by a stable attribute")


def _counters(body: List[ast.stmt], ctx: FileContext) -> Set[str]:
    """Names a module or class body binds to ``itertools.count(...)``."""
    return {target.id for stmt in body if isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Call)
            and ctx.resolved_name(stmt.value.func)[0] == "itertools.count"
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
