"""Resource-pairing rules (XR2xx).

The paper's keepAlive/resource-leak motivation (Sec. IV-D, Table 2): QPs
and registered memory leaked by "plausible-looking" code were the dominant
production failure mode.  These rules run a flow-sensitive, intra-function
escape analysis: a value acquired from an allocation-like call must either
be *released* (reach a paired ``free``-style call) or *escape* the
function (returned, yielded, stored into an attribute/subscript/container,
or handed to another callable, which is then assumed to own it).  A value
that is only ever read — attribute access, subscripting, comparisons — and
never released is a leak.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.lint.callgraph import SCOPE_BARRIERS, last_component
from repro.analysis.lint.core import FileContext, Finding, Rule, register
from repro.analysis.lint.flow import (acquisition_call, functions_in,
                                      iter_own_scope)


def _parent_map(func: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    stack: List[ast.AST] = [func]
    while stack:
        node = stack.pop()
        if node is not func and isinstance(node, SCOPE_BARRIERS):
            continue
        for child in ast.iter_child_nodes(node):
            parents[child] = node
            stack.append(child)
    return parents


class PairingRule(Rule):
    """Shared engine; subclasses define the acquire/release vocabulary."""

    acquire_methods: Set[str] = set()
    #: subset of acquisitions flagged when the result is discarded — only
    #: where no callee-side owner tracks the resource (XrdmaContext.connect
    #: registers the channel in ctx.channels, so a discarded connect is
    #: recoverable; a discarded raw create_qp/alloc is not)
    discard_methods: Set[str] = set()
    #: call names (last component) that count as releasing any argument
    release_calls: Set[str] = set()
    #: method names that release their receiver (``conn.disconnect()``)
    release_receiver_methods: Set[str] = set()
    resource_noun: str = "resource"
    fix_hint: str = ""

    # ------------------------------------------------------------- checking
    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for func in functions_in(tree):
            yield from self._check_function(ctx, func)

    def _check_function(self, ctx: FileContext,
                        func: ast.AST) -> Iterator[Finding]:
        parents = _parent_map(func)
        acquisitions: List[Tuple[str, ast.AST]] = []   # (var, site)
        for node in iter_own_scope(func):
            # x = <acquire>(...)  — tracked for leak analysis
            if isinstance(node, ast.Assign):
                call = acquisition_call(node.value)
                if call is not None and last_component(call.func) \
                        in self.acquire_methods:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            acquisitions.append((target.id, node))
            # bare <acquire>(...) as a statement — result discarded
            elif isinstance(node, ast.Expr):
                call = acquisition_call(node.value)
                method = (last_component(call.func)
                          if call is not None else None)
                if method in self.discard_methods:
                    yield self.finding(
                        ctx, node,
                        f"result of {method}() is discarded: "
                        f"the {self.resource_noun} can never be released; "
                        f"{self.fix_hint}")
        aliases = self._alias_map(func)
        for var, site in acquisitions:
            names = {var} | aliases.get(var, set())
            if not self._released_or_escapes(func, parents, names, site):
                method = last_component(acquisition_call(site.value).func)
                yield self.finding(
                    ctx, site,
                    f"{var!r} acquired via {method}() is "
                    f"never freed, returned, or stored — the "
                    f"{self.resource_noun} leaks when this function "
                    f"returns; {self.fix_hint}")

    # --------------------------------------------------------------- escape
    def _alias_map(self, func: ast.AST) -> Dict[str, Set[str]]:
        """``qp = conn.qp`` makes releasing ``qp`` count for ``conn``."""
        aliases: Dict[str, Set[str]] = {}
        for node in iter_own_scope(func):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            value = node.value
            root = value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and (value is root
                                               or isinstance(value,
                                                             ast.Attribute)):
                aliases.setdefault(root.id, set()).add(node.targets[0].id)
        return aliases

    def _released_or_escapes(self, func: ast.AST,
                             parents: Dict[ast.AST, ast.AST],
                             names: Set[str], site: ast.AST) -> bool:
        for node in iter_own_scope(func):
            if not (isinstance(node, ast.Name) and node.id in names
                    and isinstance(node.ctx, ast.Load)):
                continue
            if self._is_release_use(node, parents):
                return True
            if self._is_escape_use(node, parents):
                return True
        return False

    def _is_release_use(self, name: ast.Name,
                        parents: Dict[ast.AST, ast.AST]) -> bool:
        # conn.disconnect() — receiver of a releasing method
        parent = parents.get(name)
        if isinstance(parent, ast.Attribute) and parent.value is name \
                and parent.attr in self.release_receiver_methods:
            grand = parents.get(parent)
            if isinstance(grand, ast.Call) and grand.func is parent:
                return True
        # free(buf) / memcache.free(buf.addr) — anywhere inside the args
        # of a call whose name is in the release vocabulary
        node: ast.AST = name
        while node in parents:
            up = parents[node]
            if isinstance(up, ast.Call) and node is not up.func \
                    and last_component(up.func) in self.release_calls:
                return True
            if isinstance(up, ast.stmt):
                break
            node = up
        return False

    def _is_escape_use(self, name: ast.Name,
                       parents: Dict[ast.AST, ast.AST]) -> bool:
        """A *bare* use handing the value somewhere that outlives the
        function.  ``buf.addr`` / ``buf[0]`` / ``buf is None`` are reads."""
        parent = parents.get(name)
        if isinstance(parent, (ast.Attribute, ast.Subscript)) \
                and parent.value is name:
            return False                        # read through the handle
        if isinstance(parent, ast.Compare):
            return False                        # identity/None test
        node: ast.AST = name
        while node in parents:
            up = parents[node]
            if isinstance(up, ast.Call) and node is not up.func:
                return True                     # argument to any callable
            if isinstance(up, (ast.Return, ast.Yield, ast.YieldFrom)):
                return True                     # handed to the caller
            if isinstance(up, ast.Assign) and node is not up.targets[0]:
                # stored into an attribute, container, or subscript
                for target in up.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript,
                                           ast.Tuple, ast.List)):
                        return True
                if not isinstance(node, ast.Name):
                    return True                 # packed into a container
            if isinstance(up, ast.stmt):
                break
            node = up
        return False


@register
class MemcacheLeakRule(PairingRule):
    """Every ``MemCache.alloc``/``reg_mem`` result must reach ``free``."""

    name = "memcache-leak"
    code = "XR201"
    summary = ("alloc()/reg_mem() result neither freed nor "
               "escaping the function")
    acquire_methods = {"alloc", "reg_mem"}
    discard_methods = {"alloc", "reg_mem"}
    release_calls = {"free", "dereg_mem", "release"}
    release_receiver_methods = {"free", "release"}
    resource_noun = "buffer (and its MR accounting)"
    fix_hint = ("pair it with memcache.free()/dereg_mem(), or return/store "
                "the buffer so the owner can")


@register
class QpLeakRule(PairingRule):
    """Every ``connect``/``create_qp`` acquisition needs a teardown path."""

    name = "qp-leak"
    code = "XR202"
    summary = ("connect()/create_qp() result has no destroy/recycle/close "
               "path and never escapes")
    acquire_methods = {"connect", "create_qp"}
    discard_methods = {"create_qp"}
    release_calls = {"close_channel", "destroy_qp", "disconnect", "put",
                     "recycle"}
    release_receiver_methods = {"close", "disconnect", "destroy"}
    resource_noun = "QP/channel (NIC-side state included)"
    fix_hint = ("close_channel()/destroy_qp() it on every path, or hand "
                "it to an owner that will")
