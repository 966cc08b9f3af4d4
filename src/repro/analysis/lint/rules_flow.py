"""Interprocedural yield-point race & resource-escape rules (XR4xx).

PR 6 fixed three production-shaped concurrency defects by hand — the
``QpCache.put``/``prewarm`` check-yield-append race, the QP leak on the
``ConnectError`` edge of ``XrdmaContext.connect``, and the unbounded
``close_channel`` drain loop.  All three share one root cause: a
generator-based sim process was written as if the world holds still
between its statements, but every yield point hands the scheduler to
*every other process* first.  These rules make that whole defect family
machine-checkable over the generator CFG (:mod:`.flow`) and the project
call graph (:mod:`.callgraph`):

* **XR401 stale-guard** — a capacity/length/state guard is read before a
  preemption edge and relied on after it without a re-check; the same
  rule also covers the *alloc-install* variant (the PR 10 channel
  rendezvous races), where the stale fact is the implicit "this channel
  is alive" established before an allocator yield.
* **XR402 exception-edge-leak** — a resource acquired from a cache/
  allocator can be orphaned when a later call raises a *handled*
  exception, because no except/finally on that edge releases it.
* **XR403 unbounded-yield-loop** — a wait loop yields forever with no
  deadline, lifecycle flag, or exit edge reachable in its condition.
* **XR404 yield-in-critical-section** — a preemption edge sits between a
  counter/budget mutation and the paired mutation that restores the
  invariant, so concurrent processes observe the broken intermediate
  state.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint.callgraph import (SCOPE_BARRIERS, CallGraph,
                                           last_component)
from repro.analysis.lint.core import FileContext, Finding, Rule, register
from repro.analysis.lint.flow import (MUTATOR_METHODS, acquisition_call,
                                      attr_path, attr_paths_read, block_lists,
                                      condition_fingerprints, functions_in,
                                      identifier_parts, is_generator,
                                      is_terminal, iter_own_scope,
                                      mutates_path, normalize, preemption_in)

_LOOPS = (ast.While, ast.For, ast.AsyncFor)


# =========================================================== XR401
#: allocator methods whose yield opens the alloc-install race window —
#: deliberately narrower than XR402's acquire vocabulary: connect/
#: create_qp results are handed off, not installed into channel maps
_ALLOC_METHODS = {"alloc"}


@dataclass
class _GuardState:
    guarded: Set[str]
    fingerprints: Set[str]
    graph: Optional[CallGraph]
    preempted: bool = False
    hit: Optional[Tuple[ast.stmt, str]] = None
    done: bool = False


@register
class StaleGuardRule(Rule):
    """A guard checked before a yield must be re-checked after it.

    The exact shape of the pre-PR-6 ``QpCache.put`` race: ``if
    len(self._pool) >= self.capacity`` guards an append, but a
    ``modify_qp`` yield sits in between, and a concurrent recycler can
    claim the last slot while this process is suspended.  A guard over
    shared object state (attribute paths — locals cannot race) is *stale*
    after any preemption edge; the mutation it protects must re-validate
    it first.

    The rule's second scan covers the *implicit* guard variant — the
    pre-PR-10 ``_start_rendezvous``/``_send_announce`` races: a buffer
    comes back from ``yield from memcache.alloc(...)`` and is installed
    into shared channel state (``self._rendezvous[seq] = ...``,
    ``msg.src_buffer = buffer``) with no lifecycle re-check in between.
    The guard here was never written down: the channel was READY when the
    generator was dispatched, but ``mark_broken`` can run during the
    alloc yield, sweep the maps, and the resumed install both leaks the
    buffer and resurrects state on a dead channel.  Clean exits: a
    lifecycle/state re-check with a terminal body before the install, a
    ``free(...)`` of the buffer, or returning it to the caller.
    """

    name = "stale-guard"
    code = "XR401"
    summary = ("guard read before a yield point and relied on after it "
               "without re-checking (QpCache.put/prewarm race shape), or "
               "an alloc-yield result installed into shared state with "
               "no lifecycle re-check (rendezvous alloc-race shape)")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for func in functions_in(tree):
            if not is_generator(func):
                continue
            yield from self._check_function(ctx, func)
            yield from self._check_alloc_installs(ctx, func)

    def _check_function(self, ctx: FileContext,
                        func: ast.AST) -> Iterator[Finding]:
        graph = ctx.callgraph
        blocks: List[List[ast.stmt]] = [func.body]
        while blocks:
            block = blocks.pop()
            for stmt in block:
                if isinstance(stmt, SCOPE_BARRIERS):
                    continue
                blocks.extend(block_lists(stmt))
            for index, stmt in enumerate(block):
                guard = self._as_guard(stmt)
                if guard is None:
                    continue
                guarded, prints = guard
                state = _GuardState(guarded=guarded, fingerprints=prints,
                                    graph=graph)
                self._scan(block[index + 1:], state)
                if state.hit is not None:
                    mut, path = state.hit
                    yield self.finding(
                        ctx, mut,
                        f"{path!r} is mutated here relying on the guard at "
                        f"line {stmt.lineno}, but a yield point sits in "
                        f"between — another process may have changed "
                        f"{path!r} while this one was suspended; re-check "
                        f"the guard after the last yield (the "
                        f"QpCache.put/prewarm race shape)")

    # ------------------------------------------------- alloc-install scan
    def _check_alloc_installs(self, ctx: FileContext,
                              func: ast.AST) -> Iterator[Finding]:
        for chain, stmt in _assignments_with_chains(func):
            if not isinstance(stmt, ast.Assign) \
                    or not isinstance(stmt.value, (ast.Yield, ast.YieldFrom)):
                continue
            call = acquisition_call(stmt.value)
            if call is None or last_component(call.func) not in _ALLOC_METHODS:
                continue
            names: Set[str] = set()
            for target in stmt.targets:
                base = (target.value if isinstance(target, ast.Subscript)
                        else target)
                path = attr_path(base)
                if path is not None and "." in path:
                    # The install is fused into the acquire itself: the
                    # buffer lands in shared state before any statement
                    # could re-check the channel.
                    yield self._alloc_finding(ctx, stmt, stmt.lineno, path)
                elif isinstance(target, ast.Name):
                    names.add(target.id)
            if not names:
                continue
            hit = self._scan_install(_tail_from_chain(chain), names)
            if isinstance(hit, tuple):
                site, path = hit
                yield self._alloc_finding(ctx, site, stmt.lineno, path)

    def _alloc_finding(self, ctx: FileContext, site: ast.stmt,
                       alloc_line: int, path: str) -> Finding:
        return self.finding(
            ctx, site,
            f"buffer from the alloc yield at line {alloc_line} is "
            f"installed into {path!r} with no lifecycle re-check after "
            f"the yield — mark_broken may have run and swept this state "
            f"while the process was suspended, so the install leaks the "
            f"buffer onto a dead channel; re-check the channel state "
            f"after the alloc, free the buffer, and bail (the rendezvous "
            f"alloc-race shape)")

    def _scan_install(self, stmts: Sequence[ast.stmt], names: Set[str]):
        """First decisive event after an alloc yield: an install site
        ``(stmt, path)``, the string ``"clean"``, or None (nothing
        decisive in this block)."""
        for stmt in stmts:
            if isinstance(stmt, SCOPE_BARRIERS):
                continue
            if isinstance(stmt, ast.Return):
                return "clean"      # escapes to the caller: XR402's domain
            if self._releases_any(stmt, names):
                return "clean"
            if isinstance(stmt, ast.If):
                if identifier_parts(stmt.test) & _ALLOC_GUARD_WORDS \
                        and is_terminal(stmt.body):
                    return "clean"  # the lifecycle re-check exists
                # Other branches only *find* installs; a return inside
                # (`if buffer is None: return`) ends that path, not the
                # fall-through this scan follows.
                for block in (stmt.body, stmt.orelse):
                    hit = self._scan_install(block, names)
                    if isinstance(hit, tuple):
                        return hit
                continue
            if isinstance(stmt, ast.Assign) \
                    and all(isinstance(t, ast.Name) for t in stmt.targets) \
                    and self._mentions_any(stmt.value, names):
                # `rendezvous = _Rendezvous(..., buffer=buffer)` makes the
                # wrapper a live handle on the allocation.
                names |= {t.id for t in stmt.targets
                          if isinstance(t, ast.Name)}
                continue
            path = self._install_path(stmt, names)
            if path is not None:
                return stmt, path
            for block in block_lists(stmt):
                hit = self._scan_install(block, names)
                if isinstance(hit, tuple):
                    return hit
        return None

    def _install_path(self, stmt: ast.stmt,
                      names: Set[str]) -> Optional[str]:
        """The dotted shared-state path a statement installs a tracked
        name into, or None.  Bare locals (``buffers.append(x)``) are not
        installs — nothing else can reach them."""
        if isinstance(stmt, ast.Assign) \
                and self._mentions_any(stmt.value, names):
            for target in stmt.targets:
                base = (target.value if isinstance(target, ast.Subscript)
                        else target)
                path = attr_path(base)
                if path is not None and "." in path:
                    return path
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if isinstance(call.func, ast.Attribute) \
                    and call.func.attr in MUTATOR_METHODS:
                path = attr_path(call.func.value)
                if path is not None and "." in path and any(
                        self._mentions_any(arg, names)
                        for arg in call.args):
                    return path
        return None

    def _releases_any(self, stmt: ast.stmt, names: Set[str]) -> bool:
        for sub in iter_own_scope(stmt):
            if isinstance(sub, ast.Call) \
                    and last_component(sub.func) in _RELEASE_CALLS:
                for arg in list(sub.args) \
                        + [kw.value for kw in sub.keywords]:
                    if self._mentions_any(arg, names):
                        return True
        return False

    @staticmethod
    def _mentions_any(node: ast.AST, names: Set[str]) -> bool:
        return any(isinstance(sub, ast.Name) and sub.id in names
                   for sub in ast.walk(node))

    @staticmethod
    def _as_guard(stmt: ast.stmt) -> Optional[Tuple[Set[str], Set[str]]]:
        """An early-exit ``if`` over shared state: its guarded paths and
        condition fingerprints, or None."""
        if not isinstance(stmt, ast.If) or stmt.orelse:
            return None
        if not is_terminal(stmt.body):
            return None
        guarded = attr_paths_read(stmt.test)
        if not guarded:
            return None
        return guarded, condition_fingerprints(stmt.test)

    def _scan(self, stmts: Sequence[ast.stmt], state: _GuardState) -> None:
        for stmt in stmts:
            if state.done:
                return
            if isinstance(stmt, SCOPE_BARRIERS):
                continue
            path = mutates_path(stmt, state.guarded)
            if path is not None:
                # The first mutation that relies on the guard decides.
                if state.preempted:
                    state.hit = (stmt, path)
                state.done = True
                return
            if isinstance(stmt, ast.If):
                self._scan(stmt.body, state)
                self._scan(stmt.orelse, state)
                if state.done:
                    return
                if condition_fingerprints(stmt.test) & state.fingerprints \
                        and (is_terminal(stmt.body)
                             or preemption_in(stmt.body, state.graph)
                             is None):
                    # Falling past an equivalent early-exit check means the
                    # condition was freshly evaluated: the guard is live
                    # again until the next preemption edge.
                    state.preempted = False
            elif isinstance(stmt, _LOOPS):
                self._scan(stmt.body, state)
                self._scan(stmt.orelse, state)
                if not state.done and isinstance(stmt, ast.While) \
                        and condition_fingerprints(stmt.test) \
                        & state.fingerprints:
                    # Leaving `while <guard>:` re-evaluated the condition.
                    state.preempted = False
            elif isinstance(stmt, (ast.With, ast.AsyncWith, ast.Try)):
                for block in block_lists(stmt):
                    self._scan(block, state)
            else:
                if preemption_in([stmt], state.graph) is not None:
                    state.preempted = True


# =========================================================== XR402
#: acquisition vocabulary: allocation-like methods, plus `.get()` on a
#: receiver that names a cache/pool (the QP-cache fast path)
_ACQUIRE_METHODS = {"alloc", "reg_mem", "create_qp", "connect"}
_CACHE_RECEIVER_WORDS = ("cache", "pool")
#: release vocabulary, shared with the XR2xx pairing rules
_RELEASE_CALLS = {"free", "dereg_mem", "release", "close_channel",
                  "destroy_qp", "disconnect", "put", "recycle"}
_RELEASE_RECEIVER_METHODS = {"close", "disconnect", "destroy", "free",
                             "release", "put"}


def _is_acquire(call: ast.Call) -> bool:
    name = last_component(call.func)
    if name in _ACQUIRE_METHODS:
        return True
    if name == "get" and isinstance(call.func, ast.Attribute):
        receiver = last_component(call.func.value)
        return receiver is not None and any(
            word in receiver.lower() for word in _CACHE_RECEIVER_WORDS)
    return False


def _contains_release(nodes: Sequence[ast.stmt]) -> bool:
    """Does a handler/finally block call anything release-shaped?"""
    for stmt in nodes:
        for sub in iter_own_scope(stmt):
            if not isinstance(sub, ast.Call):
                continue
            name = last_component(sub.func)
            if name in _RELEASE_CALLS or name in _RELEASE_RECEIVER_METHODS:
                return True
    return False


def _protection_map(func: ast.AST) -> Dict[int, bool]:
    """id(stmt) → is the statement under a try whose except/finally
    releases resources (so its exception edge is compensated)."""
    protected: Dict[int, bool] = {}

    def walk(stmts: Sequence[ast.stmt], shielded: bool) -> None:
        for stmt in stmts:
            protected[id(stmt)] = shielded
            if isinstance(stmt, SCOPE_BARRIERS):
                continue
            if isinstance(stmt, ast.Try):
                releasing = (_contains_release(stmt.finalbody)
                             or any(_contains_release(h.body)
                                    for h in stmt.handlers))
                walk(stmt.body, shielded or releasing)
                walk(stmt.orelse, shielded or releasing)
                for handler in stmt.handlers:
                    walk(handler.body, shielded)
                walk(stmt.finalbody, shielded)
            else:
                for block in block_lists(stmt):
                    walk(block, shielded)

    walk(func.body, False)
    return protected


@dataclass
class _EscapeState:
    names: Set[str]
    graph: CallGraph
    protected: Dict[int, bool]
    outcome: Optional[Tuple[str, ast.stmt, str]] = None  # (kind, stmt, text)
    tested_depth: int = 0   #: inside an `if` whose test reads the resource


@register
class ExceptionEdgeLeakRule(Rule):
    """Acquired resources must survive every *handled* exception edge.

    The interprocedural upgrade of the XR2xx escape analysis, built for
    the pre-PR-6 ``XrdmaContext.connect`` leak: a recycled QP was handed
    to ``cm.connect``, which raises ``ConnectError`` on timeout — an
    exception the project demonstrably catches — so every failed connect
    orphaned a QP.  The rule follows acquire→release pairing through
    ``yield from`` delegation (call-graph-resolved), ``try/except/
    finally`` compensation, and early-return/raise edges.  Exception
    classes nobody specifically catches are fatal by project convention
    and do not create edges.
    """

    name = "exception-edge-leak"
    code = "XR402"
    summary = ("acquired resource orphaned when a later call raises a "
               "handled exception (ConnectError QP-leak shape)")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        graph = ctx.callgraph
        if graph is None:       # pragma: no cover — runner always sets it
            return
        for func in functions_in(tree):
            yield from self._check_function(ctx, func, graph)

    def _check_function(self, ctx: FileContext, func: ast.AST,
                        graph: CallGraph) -> Iterator[Finding]:
        protected = _protection_map(func)
        for chain, stmt in _assignments_with_chains(func):
            if not isinstance(stmt, ast.Assign):
                continue
            call = acquisition_call(stmt.value)
            if call is None or not _is_acquire(call):
                continue
            names = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            if not names:
                continue
            via = last_component(call.func) or "?"
            state = _EscapeState(names=names, graph=graph,
                                 protected=protected)
            self._scan(_tail_from_chain(chain), state)
            if state.outcome is not None and state.outcome[0] == "flag":
                _, site, text = state.outcome
                name = sorted(names)[0]
                yield self.finding(
                    ctx, site,
                    f"{name!r} acquired via {via}() at line "
                    f"{stmt.lineno} {text} — the exception edge leaves "
                    f"this function with the resource unreleased; release "
                    f"it in an except/finally handler on that edge, or "
                    f"attach it to the raised exception (the ConnectError "
                    f"QP-leak shape)")

    # ------------------------------------------------------------- scanning
    def _scan(self, stmts: Sequence[ast.stmt], state: _EscapeState) -> None:
        for stmt in stmts:
            if state.outcome is not None:
                return
            if isinstance(stmt, SCOPE_BARRIERS):
                continue
            if isinstance(stmt, ast.If):
                tests_resource = any(
                    isinstance(sub, ast.Name) and sub.id in state.names
                    for sub in ast.walk(stmt.test))
                if tests_resource:
                    state.tested_depth += 1
                self._scan(stmt.body, state)
                self._scan(stmt.orelse, state)
                if tests_resource:
                    state.tested_depth -= 1
                continue
            if isinstance(stmt, (ast.Try, ast.With, ast.AsyncWith)) \
                    or isinstance(stmt, _LOOPS):
                self._classify(stmt, state, header_only=True)
                if state.outcome is not None:
                    return
                for block in block_lists(stmt):
                    self._scan(block, state)
                continue
            self._classify(stmt, state, header_only=False)

    def _classify(self, stmt: ast.stmt, state: _EscapeState,
                  header_only: bool) -> None:
        """Decide what one simple statement (or a compound header) does to
        the tracked resource.  Priority: alias < release < raise <
        flagged call < handoff/escape < early return."""
        nodes = (self._header_nodes(stmt) if header_only
                 else list(iter_own_scope(stmt)) + [stmt])
        # 1. alias/component tracking: `qp2 = qp` extends the name set, and
        # `addr = allocation.addr` makes the local a live derived handle
        # (later handing `addr` to a callee transfers the resource with it)
        if not header_only and isinstance(stmt, ast.Assign) \
                and all(isinstance(t, ast.Name) for t in stmt.targets):
            value = stmt.value
            is_alias = isinstance(value, ast.Name) \
                and value.id in state.names
            is_component = any(
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in state.names
                for sub in ast.walk(value))
            if is_alias or is_component:
                for target in stmt.targets:
                    state.names.add(target.id)
                return
        calls = [n for n in nodes if isinstance(n, ast.Call)]
        # 2. release: the resource reaches the release vocabulary
        for call in calls:
            if self._releases(call, state):
                state.outcome = ("clean", stmt, "released")
                return
        # 3. raise edges: escape via the exception, or a dropping raise
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            if self._mentions(stmt, state):
                state.outcome = ("clean", stmt, "escapes via exception")
                return
            raised = last_component(
                stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc)
            if raised in state.graph.caught_exceptions \
                    and not state.protected.get(id(stmt), False):
                state.outcome = (
                    "flag", stmt,
                    f"is dropped when {raised} is raised here")
            return
        # 4. a call that may raise a handled exception, unprotected
        if not state.protected.get(id(stmt), False):
            for call in calls:
                callee = last_component(call.func)
                if state.graph.may_raise_handled(callee):
                    state.outcome = (
                        "flag", stmt,
                        f"can be orphaned when {callee}() raises here")
                    return
        # 5. handoff / escape: stored, returned, yielded, or passed on
        if self._escapes(stmt, calls, state):
            state.outcome = ("clean", stmt, "escapes")
            return
        # 6. early return that drops a live resource
        if isinstance(stmt, ast.Return) and not header_only \
                and state.tested_depth == 0:
            state.outcome = (
                "flag", stmt,
                "is dropped by this early return")

    @staticmethod
    def _header_nodes(stmt: ast.stmt) -> List[ast.AST]:
        """Expression nodes of a compound statement's header (loop test,
        with items) — its blocks are scanned separately."""
        headers: List[ast.AST] = []
        if isinstance(stmt, ast.While):
            headers.append(stmt.test)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            headers.append(stmt.iter)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            headers.extend(item.context_expr for item in stmt.items)
        nodes: List[ast.AST] = []
        for header in headers:
            nodes.extend(ast.walk(header))
        return nodes

    @staticmethod
    def _mentions(node: ast.AST, state: _EscapeState) -> bool:
        return any(isinstance(sub, ast.Name) and sub.id in state.names
                   for sub in ast.walk(node))

    def _releases(self, call: ast.Call, state: _EscapeState) -> bool:
        name = last_component(call.func)
        if name in _RELEASE_CALLS:
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                if self._mentions(arg, state):
                    return True
        if isinstance(call.func, ast.Attribute) \
                and call.func.attr in _RELEASE_RECEIVER_METHODS \
                and isinstance(call.func.value, ast.Name) \
                and call.func.value.id in state.names:
            return True
        return False

    def _escapes(self, stmt: ast.stmt, calls: Sequence[ast.Call],
                 state: _EscapeState) -> bool:
        # passed (bare) to any callable: the callee is assumed to own it
        for call in calls:
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                if isinstance(arg, ast.Name) and arg.id in state.names:
                    return True
        # returned / yielded to the caller
        if isinstance(stmt, ast.Return) and stmt.value is not None \
                and self._mentions(stmt.value, state):
            return True
        if isinstance(stmt, ast.Expr) \
                and isinstance(stmt.value, (ast.Yield, ast.YieldFrom)) \
                and stmt.value.value is not None \
                and self._mentions(stmt.value.value, state):
            return True
        # stored into an attribute, subscript, or container
        if isinstance(stmt, ast.Assign) and self._mentions(stmt.value, state):
            for target in stmt.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript,
                                       ast.Tuple, ast.List)):
                    return True
        return False


def _assignments_with_chains(func: ast.AST):
    """Every statement in a function paired with its block chain:
    ``[(block, index), ...]`` innermost-last."""
    results: List[Tuple[List[Tuple[List[ast.stmt], int, ast.stmt]],
                        ast.stmt]] = []

    def walk(block: List[ast.stmt],
             chain: List[Tuple[List[ast.stmt], int, ast.stmt]]) -> None:
        for index, stmt in enumerate(block):
            here = chain + [(block, index, stmt)]
            results.append((here, stmt))
            if isinstance(stmt, SCOPE_BARRIERS):
                continue
            for sub in block_lists(stmt):
                walk(sub, here)

    walk(func.body, [])
    return results


def _tail_from_chain(
        chain: List[Tuple[List[ast.stmt], int, ast.stmt]]
) -> List[ast.stmt]:
    """Statements executing after the chain's innermost statement, in
    order: the rest of its block, then (walking outward) try else/finally
    blocks and the rest of each enclosing block.  Loop back-edges are
    ignored — each iteration must settle its own acquisitions."""
    tail: List[ast.stmt] = []
    for depth in range(len(chain) - 1, -1, -1):
        block, index, stmt = chain[depth]
        tail.extend(block[index + 1:])
        if depth > 0:
            owner = chain[depth - 1][2]
            if isinstance(owner, ast.Try) and block is owner.body:
                tail.extend(owner.orelse)
                tail.extend(owner.finalbody)
    return tail


# =========================================================== XR403
#: words that make a wait-loop's exit condition *bounded*
_DEADLINE_WORDS = {
    "deadline", "timeout", "budget", "limit", "remaining", "retries",
    "retry", "attempt", "attempts", "expires", "expiry", "now", "left",
    "max", "until", "end",
}
#: words that mark an intentionally externally-terminated lifecycle loop —
#: ``ready`` included: ``while channel.state is ChannelState.READY`` waits
#: are exited by the keepalive/on_broken machinery flipping the state
_LIFECYCLE_WORDS = {
    "stop", "stopped", "stopping", "running", "run", "shutdown", "done",
    "closed", "closing", "alive", "started", "active", "draining", "halt",
    "quit", "exit", "ready",
}
#: what XR401's alloc-install scan accepts as a post-alloc lifecycle
#: re-check: the lifecycle vocabulary plus the state-comparison words
#: (`channel.state is not ChannelState.READY`, `self.broken`)
_ALLOC_GUARD_WORDS = _LIFECYCLE_WORDS | {"state", "broken"}


@register
class UnboundedYieldLoopRule(Rule):
    """A wait loop that yields must be able to give up.

    The pre-PR-6 ``close_channel`` drain shape: ``while qp.sq or
    qp.outstanding: yield sim.timeout(...)`` spins forever against a
    wedged QP.  A ``while`` whose body yields is flagged when nothing
    bounds it: no ``break``/``return``/``raise`` exit edge in the body,
    no deadline/budget vocabulary and no lifecycle flag in the
    condition, and no statement in the body that could advance the
    condition itself.
    """

    name = "unbounded-yield-loop"
    code = "XR403"
    summary = ("while-loop yields with no deadline, exit edge, or "
               "progress toward its condition (close-drain shape)")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for func in functions_in(tree):
            for node in iter_own_scope(func):
                if isinstance(node, ast.While):
                    finding = self._check_loop(ctx, node)
                    if finding is not None:
                        yield finding

    def _check_loop(self, ctx: FileContext,
                    loop: ast.While) -> Optional[Finding]:
        if isinstance(loop.test, ast.Constant):
            return None         # `while True:` — an intentional process loop
        if preemption_in(loop.body, ctx.callgraph) is None:
            return None         # no yield: host-side loop, not our concern
        if self._has_exit_edge(loop):
            return None
        words = identifier_parts(loop.test)
        if words & _DEADLINE_WORDS or words & _LIFECYCLE_WORDS:
            return None
        if self._makes_progress(loop):
            return None
        return self.finding(
            ctx, loop,
            "this loop yields until its condition changes, but nothing "
            "bounds it: no deadline or iteration budget in the exit "
            "condition, no break/raise escape, and the body never "
            "touches the state it waits on — a wedged peer wedges this "
            "process forever (the close-drain shape); bound it with a "
            "deadline and escalate on expiry")

    @staticmethod
    def _has_exit_edge(loop: ast.While) -> bool:
        def scan(stmts: Sequence[ast.stmt], own_loop: bool) -> bool:
            for stmt in stmts:
                if isinstance(stmt, SCOPE_BARRIERS):
                    continue
                if isinstance(stmt, (ast.Return, ast.Raise)):
                    return True
                if own_loop and isinstance(stmt, ast.Break):
                    return True
                nested_loop = isinstance(stmt, _LOOPS)
                for block in block_lists(stmt):
                    if scan(block, own_loop and not nested_loop):
                        return True
            return False

        return scan(loop.body, True)

    @staticmethod
    def _makes_progress(loop: ast.While) -> bool:
        """Could the body advance the loop condition on its own?"""
        reads = attr_paths_read(loop.test)
        reads |= {node.id for node in ast.walk(loop.test)
                  if isinstance(node, ast.Name)}

        def related(path: Optional[str]) -> bool:
            if path is None:
                return False
            for read in reads:
                if path == read or read.startswith(path + ".") \
                        or path.startswith(read + "."):
                    return True
            return False

        for stmt in loop.body:
            for sub in iter_own_scope(stmt):
                if isinstance(sub, (ast.Assign, ast.AugAssign,
                                    ast.AnnAssign)):
                    targets = (sub.targets if isinstance(sub, ast.Assign)
                               else [sub.target])
                    for target in targets:
                        if isinstance(target, ast.Subscript):
                            target = target.value
                        if related(attr_path(target)):
                            return True
                elif isinstance(sub, ast.Delete):
                    return True
                elif isinstance(sub, ast.Call):
                    func = sub.func
                    if isinstance(func, ast.Attribute) \
                            and related(attr_path(func.value)):
                        return True     # method call on the waited state
                    for arg in list(sub.args) \
                            + [kw.value for kw in sub.keywords]:
                        if related(attr_path(arg)):
                            return True  # waited state handed to a callee
        return False


# =========================================================== XR404
@register
class YieldInCriticalSectionRule(Rule):
    """No preemption edge between paired invariant mutations.

    ``self.resident_pages += n`` … yield … ``self.free_pages -= n`` is a
    transfer: between the two halves the conservation invariant is
    broken, and the yield schedules every other process — including
    invariant checkers and capacity guards — against the broken state.
    Same-attribute charge/release pairs (``x += n`` … yield … ``x -= n``)
    are the *intended* in-flight accounting idiom and are exempt; the
    reversed order (un-charge, yield, re-charge) and cross-attribute
    transfers are flagged.
    """

    name = "yield-in-critical-section"
    code = "XR404"
    summary = ("yield point between a counter/budget mutation and its "
               "paired invariant-restoring mutation")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for func in functions_in(tree):
            if not is_generator(func):
                continue
            yield from self._check_function(ctx, func)

    def _check_function(self, ctx: FileContext,
                        func: ast.AST) -> Iterator[Finding]:
        events = self._linearize(func, ctx.callgraph)
        muts = [(i, ev) for i, ev in enumerate(events) if ev[1] == "mut"]
        for a, (i, first) in enumerate(muts):
            for j, second in muts[a + 1:]:
                hit = self._pair_hit(events, i, j, first, second)
                if hit is not None:
                    key_y, first_stmt, second_stmt, p1, p2 = hit
                    yield self.finding(
                        ctx, key_y,
                        f"yield point between paired mutations of {p1!r} "
                        f"(line {first_stmt.lineno}) and {p2!r} (line "
                        f"{second_stmt.lineno}): every other process runs "
                        f"here and observes the broken invariant; keep "
                        f"both halves on the same side of the yield, or "
                        f"re-derive the state after resuming")
                    break

    def _pair_hit(self, events, i, j, first, second):
        _, _, stmt1, key1, path1, sign1, value1 = first
        _, _, stmt2, key2, path2, sign2, value2 = second
        if sign1 == sign2 or value1 != value2:
            return None
        if not _branches_compatible(key1, key2):
            return None
        if path1 == path2:
            if not (sign1 < 0 < sign2):
                return None     # x += n … x -= n: in-flight idiom, exempt
        elif path1.split(".")[0] != path2.split(".")[0]:
            return None         # unrelated roots: not one object's invariant
        for k in range(i + 1, j):
            index, kind, node, key, *_rest = events[k]
            if kind == "yield" and _branches_compatible(key, key1) \
                    and _branches_compatible(key, key2):
                return node, stmt1, stmt2, path1, path2
        return None

    @staticmethod
    def _linearize(func: ast.AST, graph: Optional[CallGraph]):
        """(index, kind, node, branch_key, path, sign, value_print) events
        in source order; branch keys make exclusive `if` arms and except
        handlers incomparable."""
        events: List[Tuple] = []

        def emit(kind, node, key, path="", sign=0, vprint=""):
            events.append((len(events), kind, node, key, path, sign, vprint))

        def walk(stmts: Sequence[ast.stmt], key: Tuple) -> None:
            for stmt in stmts:
                if isinstance(stmt, SCOPE_BARRIERS):
                    continue
                if isinstance(stmt, ast.AugAssign) \
                        and isinstance(stmt.op, (ast.Add, ast.Sub)):
                    path = attr_path(stmt.target)
                    if path is not None and "." in path:
                        sign = 1 if isinstance(stmt.op, ast.Add) else -1
                        emit("mut", stmt, key, path, sign,
                             normalize(stmt.value))
                        continue
                if isinstance(stmt, ast.If):
                    walk(stmt.body, key + ((id(stmt), 0),))
                    walk(stmt.orelse, key + ((id(stmt), 1),))
                    continue
                if isinstance(stmt, ast.Try):
                    walk(stmt.body, key)
                    walk(stmt.orelse, key)
                    for n, handler in enumerate(stmt.handlers):
                        walk(handler.body, key + ((id(stmt), 2 + n),))
                    walk(stmt.finalbody, key)
                    continue
                if isinstance(stmt, _LOOPS + (ast.With, ast.AsyncWith)):
                    if preemption_in([stmt.iter] if isinstance(
                            stmt, (ast.For, ast.AsyncFor)) else [], graph):
                        emit("yield", stmt, key)
                    for block in block_lists(stmt):
                        walk(block, key)
                    continue
                node = preemption_in([stmt], graph)
                if node is not None:
                    emit("yield", node, key)

        walk(func.body, ())
        return events


def _branches_compatible(key1: Tuple, key2: Tuple) -> bool:
    """Two events can lie on one execution path iff they never take
    different arms of the same branch point."""
    arms: Dict[int, int] = dict(key1)
    return all(arms.get(branch, arm) == arm for branch, arm in key2)
