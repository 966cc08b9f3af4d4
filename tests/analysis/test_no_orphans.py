"""The caller audit as a test (EXPERIMENTS.md, "The caller audit, top half").

Every public top-level class or function in ``src/repro`` must be named
by code in ``src/``, ``bench/``, ``benchmarks/`` or ``examples/`` other
than its own definition — or sit in ``KEPT`` with the caller table's
one-line reason.  Not callers: ``tests/``, docstrings and comments, a
package ``__init__``'s re-exports, any ``__all__``.  A definition
registered by decorator (``@register`` lint rules, ``@scenario`` fleet
scenarios) is called through its registry.

The same audit one level down (EXPERIMENTS.md, "One free list, no
write-only state"): every dataclass field, enum member, class constant
and ``self.`` attribute that ``src/repro`` stores must be *read* by code
somewhere in ``src/``, ``bench/``, ``benchmarks/``, ``examples/`` or
``tests/`` — loaded as an attribute, named by a string key
(``snapshot()["data_bytes_delivered"]``), or loaded as a bare name in
the body of the class that stores it — or sit in ``KEPT_STATE`` with the
reason it is read only by reflection.  A store (``=``, ``+=``, a
constructor keyword) is not a read, and neither is a load that only writes
through the object: the receiver of a mutating call used as a statement
(``self.log.append(x)``) or the base of a subscript store or ``del``
(``self.table[k] = v``), so an append-only list is write-only.

What the audits count (EXPERIMENTS.md, "The audits see bindings and
config switches"): bindings, not names.  A mention is an attribute load,
an import, or the load of a name that no enclosing scope binds for
itself; a parameter or the target of an assignment, a loop, a ``with``
or an ``except … as`` is a binding, and so is every later load of it, so
the local ``step`` in ``xrdma/flowctl.py`` names no ``Simulator.step``.
A method is mentioned only by an attribute load, or by a bare name in
its own class body.  Where the audit can tell the receiver's class
(``self``, ``Cls.m``, ``Cls(...).m``, a name bound by ``x = Cls(...)`` or
annotated ``Cls``, and ``self.x`` stored as one of those), the load
reaches only that class, its bases and its subclasses, if one of them
defines the name.  Any other load is untyped: it reaches every class
defining the name, unless ``UNTYPED_RECEIVERS`` says which class it
calls.

The options audit as a test (EXPERIMENTS.md, "Every knob has a second
value in use"): every key a registered fleet scenario reads from
``ctx.params`` must take two distinct values across the full and
``--quick`` spec sets, or sit in ``KEPT_PARAMS`` with its reason.  A
knob with one value in use is a constant.  The config audit does the
same for the switches of ``SimParams`` and ``XrdmaConfig``: every
``bool`` or ``str`` field must get a non-default value from live code, or
sit in ``KEPT_SWITCHES``.  A value is a keyword to the class, a key a
``**`` mapping passed to it puts, or ``set_flag("field", value)``; one
that is no literal counts as non-default.

Both audits one level down (EXPERIMENTS.md, "Every method and keyword has
a live caller"): every public method of a class in ``src/repro`` must be
named by live code other than its own definition, or sit in
``KEPT_METHODS``; and every defaulted parameter of a function or method
in ``src/repro`` outside ``repro.fleet`` (whose scenario parameters the
options audit covers) must be passed — by keyword or by position — by
some live call of a function with that name, or sit in
``KEPT_KEYWORDS``.  A parameter no live call passes has one value in
use, its default, so it is a constant.  Each kept map is checked for
stale entries: an entry that is no longer a finding goes.

Every file is parsed once, by the module-scoped ``live`` fixture.
"""

import ast
from itertools import combinations
from pathlib import Path

import pytest

from repro.fleet.experiments import spec_names, specs_for
from repro.fleet.runner import resolve_scenario
from repro.fleet.scenarios import SCENARIOS

ROOT = Path(__file__).resolve().parents[2]
LIVE_DIRS = ("src", "bench", "benchmarks", "examples")
READER_DIRS = LIVE_DIRS + ("tests",)
REGISTRIES = {"register", "scenario"}

#: name -> why it stays with no caller outside tests/
KEPT = {
    "SimpleHost": "user: tests/net and tests/rnic drive the fabric "
                  "through this RNIC-less host",
    "XrAdm": "Sec. IV-A tool (online configuration); user: tests/tools",
    "export_jsonl": "Sec. VI-A: only writer of the standalone trace "
                    "artifact the xr_trace CLI documents as its input",
    "rendezvous_variant_names": "user: the protocol conformance suite "
                                "parametrizes over every variant",
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp,
           ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        getattr(target, "id", "") == "__all__" for target in node.targets)


def _bindings(scope: ast.AST) -> set:
    """Names ``scope`` (a module, class, function or comprehension) binds
    for itself: its parameters and the targets of its assignments, loops,
    ``with … as``, ``except … as`` and comprehensions.  A ``def``, a
    ``class`` or an import names what it binds, so it is no binding here;
    nor is a name declared ``global`` or ``nonlocal``."""
    names, declared = set(), set()
    args = getattr(scope, "args", None)
    if isinstance(args, ast.arguments):
        names.update(arg.arg for arg in
                     args.posonlyargs + args.args + args.kwonlyargs)
        names.update(arg.arg for arg in (args.vararg, args.kwarg) if arg)
    for node in _own_nodes(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
    return names - declared


def _own_nodes(scope: ast.AST):
    """The nodes under ``scope`` outside any nested class or scope."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.ClassDef,) + _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _scoped(tree: ast.AST, skip: ast.AST = None):
    """Every node under ``tree`` (``skip`` and any ``__all__`` assignment
    excluded) as ``(node, bound, cls, method, fn)``: the names its
    enclosing scopes bind for themselves, the class whose body holds it
    directly (None inside a function), the method it sits in, and the
    innermost function."""
    stack = [(tree, frozenset(), frozenset(), None, None, None)]
    while stack:
        node, visible, bound, cls, method, fn = stack.pop()
        if node is skip or _is_all(node):
            continue
        yield node, bound, cls, method, fn
        if isinstance(node, ast.ClassDef):
            # Its body sees its own bindings; its methods do not.
            inner = (visible, visible | _bindings(node), node, method, fn)
            stack.extend((child,) + inner for child in node.body)
            stack.extend((child, visible, bound, cls, method, fn)
                         for child in node.decorator_list + node.bases)
            continue
        if isinstance(node, (ast.Module,) + _SCOPES):
            visible = bound = visible | _bindings(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = node if cls is not None else method
                fn = node
            cls = None
        stack.extend((child, visible, bound, cls, method, fn)
                     for child in ast.iter_child_nodes(node))


def _code_names(tree: ast.AST, skip: ast.AST = None) -> set:
    """Identifiers the code under ``tree`` mentions: attribute loads,
    imports, and loads of names no enclosing scope binds (``skip`` and
    any ``__all__`` assignment excluded)."""
    names = set()
    for node, bound, _, _, _ in _scoped(tree, skip):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in bound:
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _is_live(path: Path) -> bool:
    return ROOT / "tests" not in path.parents


@pytest.fixture(scope="module")
def live():
    """Every module under ``READER_DIRS`` parsed once, by path (a package
    ``__init__``'s imports, its re-exports, stripped), and the
    identifiers each live module (not under ``tests/``) mentions."""
    trees = {}
    for top in READER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = trees[path] = ast.parse(path.read_text(encoding="utf-8"))
            if path.name == "__init__.py":
                tree.body = [node for node in tree.body if not isinstance(
                    node, (ast.Import, ast.ImportFrom))]
    return trees, {path: _code_names(tree) for path, tree in trees.items()
                   if _is_live(path)}


def test_every_public_definition_has_a_caller_outside_tests(live):
    trees, mentioned = live
    orphans, defined = [], set()
    for path, tree in trees.items():
        for node in tree.body if ROOT / "src" in path.parents else ():
            if not isinstance(node, (ast.ClassDef, ast.FunctionDef)) \
                    or node.name.startswith("_"):
                continue
            defined.add(node.name)
            registered = any(
                name in REGISTRIES for decorator in node.decorator_list
                for name in _code_names(decorator))
            elsewhere = any(node.name in names
                            for other, names in mentioned.items()
                            if other != path)
            if not (registered or elsewhere or node.name in KEPT
                    or node.name in _code_names(tree, node)):
                orphans.append(f"{path.relative_to(ROOT)}:{node.name}")
    assert orphans == [], "no caller outside tests/: " + ", ".join(orphans)
    assert set(KEPT) <= defined, f"stale KEPT: {sorted(set(KEPT) - defined)}"


#: Class.method -> why it stays with no live mention
KEPT_METHODS = {
    "XrdmaContext.dereg_mem": "Table I API (xrdma_dereg_mem); user: "
                              "tests/xrdma/test_api_surface.py",
    "XrdmaContext.get_event_fd": "Table I API (xrdma_get_event_fd); user: "
                                 "tests/xrdma/test_api_surface.py",
    "Mock.is_engaged": "Sec. VI-C Mock's state query: the socket outlives "
                       "disengage(), so nothing else shows which transport "
                       "a channel's new sends take; user: the detour suites",
    "XrdmaContext.process_event": "Table I API (xrdma_process_event); "
                                  "user: tests/xrdma/test_api_surface.py",
    "XrdmaContext.reg_mem": "Table I API (xrdma_reg_mem); user: "
                            "tests/xrdma/test_api_surface.py",
    "XrdmaContext.stop": "no live run stops a context; users: "
                         "tests/scenarios/test_teardown_churn.py, the detour "
                         "and idle-wait suites, and ROADMAP item 4(iii)'s "
                         "lifecycle fuzzer, which takes it as an action",
    "Tracer.segment": "Sec. VI-A method III, the app-facing hook that logs "
                      "a slow code segment; no live app instruments one; "
                      "user: tests/analysis/test_analysis.py",
    "TieAudit.pops": "the schedule's size, pinned next to its digest in "
                     "golden_digests.json; users: tests/scenarios and "
                     "tests/sim",
    "SimpleHost.plug_into": "SimpleHost is in KEPT: tests/net and "
                            "tests/rnic plug it into the fabric",
    "XrAdm.register": "XrAdm is in KEPT: tests/tools registers the "
                      "contexts it configures",
    "LintRunner.run_source": "the lint fixture runner: every rule's "
                             "positive and negative fixture is linted "
                             "through it",
    "XrdmaContext.trace_request": "Table I API (xrdma_trace_request); "
                                  "user: tests/xrdma/test_api_surface.py",
}

#: method name several classes define -> (the classes its live loads
#: with an untyped receiver call, why)
UNTYPED_RECEIVERS = {
    "summary": ({"Tenant"},
                "bench/workloads.py's tenant.summary(): the Tenant that "
                "_serving() gets from ServingHarness.add_tenant (the other "
                "untyped load, xr_lint's cls.summary, reads a lint rule's "
                "class constant, no method)"),
}


def _callee_name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _annotated(annotation, classes) -> str:
    """The class an annotation names (``Cls``, ``"Cls"``,
    ``Optional[Cls]``), or None."""
    if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    if isinstance(annotation, ast.Subscript) and _callee_name(
            annotation.value) == "Optional":
        annotation = annotation.slice
    name = _callee_name(annotation)
    return name if name in classes else None


def _typed(value: ast.AST, env: dict, classes) -> str:
    """The class of ``value``: a constructor call or a typed name."""
    if isinstance(value, ast.Call):
        name = _callee_name(value.func)
        return name if name in classes else None
    if isinstance(value, ast.Name):
        return env.get(value.id)
    return None


def _single(types: set) -> str:
    return next(iter(types)) if len(types) == 1 else None


def _env(fn: ast.FunctionDef, owner, outer: dict, classes) -> dict:
    """Each name ``fn`` binds -> its class where every binding agrees
    (a parameter's annotation, ``x = Cls(...)``, ``x: Cls``), else None;
    a method's first parameter is its class."""
    args = fn.args
    positional = args.posonlyargs + args.args
    types = {arg.arg: {_annotated(arg.annotation, classes)}
             for arg in positional + args.kwonlyargs}
    types.update({arg.arg: {None} for arg in (args.vararg, args.kwarg)
                  if arg})
    if owner is not None and positional and not any(
            _callee_name(decorator) == "staticmethod"
            for decorator in fn.decorator_list):
        types[positional[0].arg] = {owner.name}
    env, typed = dict(outer), set()
    for node in _own_nodes(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            typed.add(id(node.targets[0]))
            types.setdefault(node.targets[0].id, set()).add(
                _typed(node.value, env, classes))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                             ast.Name):
            typed.add(id(node.target))
            types.setdefault(node.target.id, set()).add(
                _annotated(node.annotation, classes))
    for node in _own_nodes(fn):
        if isinstance(node, ast.Name) and not isinstance(
                node.ctx, ast.Load) and id(node) not in typed:
            types.setdefault(node.id, set()).add(None)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            types.setdefault(node.name, set()).add(None)
    env.update((name, _single(found)) for name, found in types.items())
    return env


def _envs(tree: ast.AST, classes) -> dict:
    """``id(fn)`` -> :func:`_env` for every function in ``tree``, a
    nested function seeing its enclosing function's names."""
    envs, stack = {}, [(tree, {})]
    while stack:
        node, outer = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node if isinstance(node, ast.ClassDef) else None
                envs[id(child)] = _env(child, owner, outer, classes)
                stack.append((child, envs[id(child)]))
            else:
                stack.append((child, outer))
    return envs


def _member_types(cls: ast.ClassDef, classes, envs) -> dict:
    """Each member ``cls`` stores -> its class where every store agrees
    (``self.x = Cls(...)``, a typed name, a field annotated ``Cls``)."""
    types = {}
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                          ast.Name):
            types.setdefault(stmt.target.id, set()).add(
                _annotated(stmt.annotation, classes))
    for fn in cls.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        env = envs[id(fn)]
        for node in _own_nodes(fn):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Attribute) \
                        and getattr(target.value, "id", None) == "self":
                    types.setdefault(target.attr, set()).add(
                        _annotated(node.annotation, classes)
                        if isinstance(node, ast.AnnAssign)
                        else _typed(node.value, env, classes))
    return {name: found for name, found in
            ((name, _single(found)) for name, found in types.items()) if found}


class _Hierarchy:
    """Every live class by name: its bases, stored members' classes, and
    the related classes a typed receiver reaches."""

    def __init__(self, trees: dict) -> None:
        self.bases, self.members, self.envs, self._families = {}, {}, {}, {}
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.bases.setdefault(node.name, set()).update(
                        filter(None, map(_callee_name, node.bases)))
        for tree in trees.values():
            self.envs.update(_envs(tree, self.bases))
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.members.setdefault(node.name, {}).update(
                        _member_types(node, self.bases, self.envs))

    def ancestors(self, name: str) -> set:
        seen, stack = set(), [name]
        while stack:
            for base in self.bases.get(stack.pop(), ()):
                if base not in seen:
                    seen.add(base)
                    stack.append(base)
        return seen

    def family(self, name: str) -> set:
        """``name``, its bases and its subclasses."""
        if name not in self._families:
            self._families[name] = ({name} | self.ancestors(name) | {
                other for other in self.bases
                if name in self.ancestors(other)})
        return self._families[name]

    def receiver(self, expr: ast.AST, fn) -> str:
        """The class of the receiver ``expr`` in function ``fn``, or
        None."""
        env = self.envs.get(id(fn), {})
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            return expr.id if expr.id in self.bases else None
        if isinstance(expr, ast.Call):
            return _typed(expr, env, self.bases)
        if isinstance(expr, ast.Attribute):
            owner = self.receiver(expr.value, fn)
            for cls in ({owner} | self.ancestors(owner)) if owner else ():
                if expr.attr in self.members.get(cls, {}):
                    return self.members[cls][expr.attr]
        return None


def test_every_public_method_has_a_caller_outside_tests(live):
    trees, _ = live
    live_trees = {path: tree for path, tree in trees.items()
                  if _is_live(path)}
    hierarchy = _Hierarchy(live_trees)
    definers, methods = {}, []
    for path, tree in live_trees.items():
        if ROOT / "src" not in path.parents:
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    definers.setdefault(node.name, set()).add(cls.name)
                    methods.append((path, cls.name, node))
    reached = {}        # (class, method) -> the methods its loads sit in
    untyped = set()     # names an untyped load resolved by hand
    for tree in live_trees.values():
        for node, bound, cls, method, fn in _scoped(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                name, owner = node.attr, hierarchy.receiver(node.value, fn)
            elif (isinstance(node, ast.Name) and cls is not None
                    and isinstance(node.ctx, ast.Load)
                    and node.id not in bound):
                name, owner = node.id, cls.name
            else:
                continue
            targets = definers.get(name, set()) & (
                hierarchy.family(owner) if owner else set())
            if not targets and name in UNTYPED_RECEIVERS:
                untyped.add(name)
                targets = UNTYPED_RECEIVERS[name][0]
            elif not targets:
                targets = definers.get(name, set())
            for target in targets:
                reached.setdefault((target, name), set()).add(id(method))
    orphans, unmentioned = [], set()
    for path, cls, node in methods:
        if reached.get((cls, node.name), set()) - {id(node)}:
            continue
        unmentioned.add(f"{cls}.{node.name}")
        if f"{cls}.{node.name}" not in KEPT_METHODS:
            orphans.append(f"{path.relative_to(ROOT)}:{cls}.{node.name}")
    assert orphans == [], "no caller outside tests/: " + ", ".join(orphans)
    assert set(KEPT_METHODS) <= unmentioned, \
        f"stale KEPT_METHODS: {sorted(set(KEPT_METHODS) - unmentioned)}"
    stale = [name for name, (classes, _) in UNTYPED_RECEIVERS.items()
             if name not in untyped or len(definers[name]) < 2
             or not classes <= definers[name]]
    assert stale == [], f"stale UNTYPED_RECEIVERS: {stale}"


#: (function, parameter) -> why a parameter no live call passes stays
KEPT_KEYWORDS = {
    ("ClockSync", "resync_after_ns"):
        "test user: test_estimates_age_out_under_resync_policy pins that "
        "an estimate older than the policy is re-synced before use",
    ("main", "argv"):
        "the four CLIs' entry point: None reads sys.argv, the CLI tests "
        "pass their argument lists",
    ("process_event", "max_messages"):
        "Table I API (xrdma_process_event): the batch bound of one call",
}


def _passes(call: ast.Call, name: str, index) -> bool:
    """Whether ``call`` may pass parameter ``name``, whose position among
    the caller's arguments is ``index`` (None: keyword-only)."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True                     # by keyword, or a ``**`` mapping
    if index is None:
        return False
    return index < len(call.args) or any(
        isinstance(arg, ast.Starred) for arg in call.args[:index + 1])


def _defaulted(owner: ast.AST, fn: ast.FunctionDef):
    """``(parameter, position)`` of every defaulted parameter of ``fn``,
    position counted as a caller writes it (no ``self``/``cls``)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    bound = isinstance(owner, ast.ClassDef) and not any(
        getattr(decorator, "id", "") == "staticmethod"
        for decorator in fn.decorator_list)
    first = len(positional) - len(args.defaults)
    for position, arg in enumerate(positional[first:], start=first):
        yield arg.arg, position - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def test_every_keyword_has_a_live_value(live):
    trees, _ = live
    calls = {}
    for path, tree in trees.items():
        for node in ast.walk(tree) if _is_live(path) else ():
            if isinstance(node, ast.Call):
                calls.setdefault(_callee_name(node.func), []).append(node)
    fleet = ROOT / "src" / "repro" / "fleet"
    unpassed, findings = [], set()
    for path, tree in trees.items():
        if ROOT / "src" not in path.parents or fleet in path.parents:
            continue
        for owner in ast.walk(tree):
            for fn in ast.iter_child_nodes(owner):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                # A constructor is called by its class's name.
                name = (owner.name if fn.name == "__init__"
                        and isinstance(owner, ast.ClassDef) else fn.name)
                for param, index in _defaulted(owner, fn):
                    if any(_passes(call, param, index)
                           for call in calls.get(name, ())):
                        continue
                    findings.add((name, param))
                    if (name, param) not in KEPT_KEYWORDS:
                        unpassed.append(f"{path.relative_to(ROOT)}:"
                                        f"{fn.lineno}:{name}({param}=)")
    assert unpassed == [], "no live call passes: " + ", ".join(unpassed)
    assert set(KEPT_KEYWORDS) <= findings, \
        f"stale KEPT_KEYWORDS: {sorted(set(KEPT_KEYWORDS) - findings)}"


#: stored member -> why it stays with no read by name
KEPT_STATE = {
    "bytes_delivered": "NetStats counter; read through snapshot()'s "
                       "asdict() by XR-Perf's crucial deltas and bench/",
    "sent_local_ns": "T1 of the Sec. VI-A trace record; read through "
                     "as_dict()'s fields() into every trace artifact "
                     "(golden_xr_trace.json pins it)",
}


#: methods whose call, as a statement, only writes to its receiver
MUTATORS = {"append", "appendleft", "extend", "add", "update", "insert",
            "discard", "remove", "clear", "setdefault", "move_to_end"}


def _write_loads(tree: ast.AST) -> set:
    """Ids of the loads under ``tree`` that only write through the object
    they load: the receiver of a discarded mutating call
    (``self.log.append(x)`` as a statement) and the base of a subscript
    store or ``del`` (``self.table[k] = v``)."""
    bases = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr in MUTATORS):
            bases.add(id(node.value.func.value))
        elif (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            bases.add(id(node.value))
    return bases


def _reads(tree: ast.AST) -> set:
    """Names the code under ``tree`` reads: attribute loads, string
    constants (docstrings excluded), and bare-name loads of a member in
    the body of the class that stores it.  A load that only writes
    through the object (:func:`_write_loads`) is no read, and neither is
    a local name's load elsewhere."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)}
    writes = _write_loads(tree)
    names, members = set(), {}
    for node, _, cls, _, _ in _scoped(tree):
        if id(node) in writes:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
              and cls is not None):
            if id(cls) not in members:
                members[id(cls)] = {name for name, _ in _stores(cls)}
            if node.id in members[id(cls)]:
                names.add(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names.add(node.value)
    return names


def _stores(cls: ast.ClassDef):
    """``(name, line)`` of every member ``cls`` stores: class-body
    assignments (fields, enum members, constants) and ``self.x`` targets
    in its methods."""
    for stmt in cls.body:
        targets = (stmt.targets if isinstance(stmt, ast.Assign) else
                   [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, stmt.lineno
    for node in ast.walk(cls):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if (isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and getattr(sub.value, "id", "") == "self"):
                        yield sub.attr, node.lineno


def test_no_stored_member_is_write_only(live):
    trees, _ = live
    read, stored = set(), {}
    for path, tree in trees.items():
        if path == Path(__file__).resolve():
            continue                # KEPT_STATE's own keys are no reads
        read |= _reads(tree)
        if ROOT / "src" not in path.parents:
            continue
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for name, line in _stores(cls):
                    if not name.startswith("__"):
                        stored.setdefault(
                            name, f"{path.relative_to(ROOT)}:{line}")
    unread = {name: where for name, where in stored.items()
              if name not in read}
    missing = sorted(f"{where}:{name}" for name, where in unread.items()
                     if name not in KEPT_STATE)
    assert missing == [], "stored, never read: " + ", ".join(missing)
    assert set(KEPT_STATE) <= set(unread), \
        f"stale KEPT_STATE: {sorted(set(KEPT_STATE) - set(unread))}"


#: (function, key) -> why a key with one value in use stays a parameter
KEPT_PARAMS = {
    ("traced_rpc", "iterations"):
        "tests/tools/test_xr_trace.py runs 6 against golden_xr_trace.json",
    ("traced_rpc", "sample_mask"):
        "test_determinism.py samples with mask 4: decisions follow the "
        "run's own trace ids, which mask 1 cannot show",
}

_ABSENT = "<absent>"        # a ``"key" in params`` test seeing no key
_REQUIRED = object()        # ``params[key]``: no value without the key


def _is_params(node: ast.AST) -> bool:
    return _callee_name(node) == "params"


def _param_reads(function: ast.FunctionDef):
    """``(key, default)`` of every read of a scenario parameter mapping
    (``params`` or ``ctx.params``) in ``function``: ``.get(key,
    default)``, ``[key]`` (``_REQUIRED``) and ``key in`` (default
    ``_ABSENT``).  A default that is no literal stands as its
    source text in angle brackets, distinct from every grid value."""
    for node in ast.walk(function):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and _is_params(node.func.value)
                and isinstance(node.args[0], ast.Constant)):
            default = (node.args[1] if len(node.args) > 1
                       else ast.Constant(None))
            try:
                yield node.args[0].value, ast.literal_eval(default)
            except ValueError:
                yield node.args[0].value, f"<{ast.unparse(default)}>"
        elif (isinstance(node, ast.Subscript) and _is_params(node.value)
                and isinstance(node.slice, ast.Constant)):
            yield node.slice.value, _REQUIRED
        elif (isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.ops[0], ast.In)
                and _is_params(node.comparators[0])
                and isinstance(node.left, ast.Constant)):
            yield node.left.value, _ABSENT


def _scenario_reach(trees: dict):
    """Every top-level fleet function by name, and for each registered
    scenario the set of those functions its body reaches by call."""
    resolve_scenario("smoke-incast")        # registers every scenario
    functions = {}
    fleet = ROOT / "src" / "repro" / "fleet"
    for path, tree in trees.items():
        for node in tree.body if path.parent == fleet else ():
            if isinstance(node, ast.FunctionDef):
                functions.setdefault(node.name, node)
    reach = {}
    for name, fn in SCENARIOS.items():
        seen, stack = set(), [fn.__name__]
        while stack:
            current = stack.pop()
            if current in seen or current not in functions:
                continue
            seen.add(current)
            stack.extend(node.func.id for node in ast.walk(functions[current])
                         if isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Name))
        reach[name] = seen
    return functions, reach


def test_every_scenario_param_has_two_values(live):
    functions, reach = _scenario_reach(live[0])
    specs = specs_for(spec_names()) + specs_for(spec_names(), quick=True)
    single = {}
    for function, node in sorted(functions.items()):
        defaults = {}
        for key, default in _param_reads(node):
            defaults.setdefault(key, []).append(default)
        users = {name for name, seen in reach.items() if function in seen}
        for key, key_defaults in defaults.items():
            values = set()
            for spec in specs:
                if spec.scenario not in users:
                    continue
                if key in spec.grid:
                    values.update(spec.grid[key])
                else:
                    values.update(d for d in key_defaults
                                  if d is not _REQUIRED)
            if len(values) < 2:
                single[function, key] = sorted(map(str, values))
    unkept = [f"{function}: {key}={values}"
              for (function, key), values in sorted(single.items())
              if (function, key) not in KEPT_PARAMS]
    assert unkept == [], "parameters with one value in use: " + \
        ", ".join(unkept)
    assert set(KEPT_PARAMS) <= set(single), \
        f"stale KEPT_PARAMS: {sorted(set(KEPT_PARAMS) - set(single))}"


#: the dataclasses whose fields configure a run
CONFIG_CLASSES = ("SimParams", "XrdmaConfig")

#: (class, field) -> why a switch with one live value stays a field
KEPT_SWITCHES = {}


def _switches(trees: dict) -> dict:
    """``(class, field)`` -> default of every ``bool`` or ``str`` field of
    :data:`CONFIG_CLASSES`: each selects a code path."""
    switches = {}
    for path, tree in trees.items():
        for cls in ast.walk(tree) if ROOT / "src" in path.parents else ():
            if not (isinstance(cls, ast.ClassDef)
                    and cls.name in CONFIG_CLASSES):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and stmt.value
                        and _callee_name(stmt.annotation) in ("bool", "str")):
                    switches[cls.name, stmt.target.id] = ast.literal_eval(
                        stmt.value)
    return switches


def _mapping_items(scope: ast.AST, name: str):
    """``(key, value)`` of every constant key that ``scope`` puts in the
    mapping bound to ``name``: ``name[key] = value``, or
    ``name = {key: value}``."""
    for node in _own_nodes(scope):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (isinstance(target, ast.Subscript)
                    and getattr(target.value, "id", None) == name
                    and isinstance(target.slice, ast.Constant)):
                yield target.slice.value, node.value
            elif (getattr(target, "id", None) == name
                    and isinstance(node.value, ast.Dict)):
                yield from ((key.value, value) for key, value in zip(
                    node.value.keys, node.value.values)
                    if isinstance(key, ast.Constant))


def _config_values(tree: ast.AST):
    """``(class, field, value)`` of every config value a call under
    ``tree`` sets: a keyword to a config class, a key of a ``**`` mapping
    passed to one, or ``set_flag("field", value)``."""
    for node, _, _, _, fn in _scoped(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = _callee_name(node.func)
        if callee == "set_flag" and len(node.args) > 1 \
                and isinstance(node.args[0], ast.Constant):
            yield "XrdmaConfig", node.args[0].value, node.args[1]
        if callee not in CONFIG_CLASSES:
            continue
        for keyword in node.keywords:
            if keyword.arg is not None:
                yield callee, keyword.arg, keyword.value
            elif isinstance(keyword.value, ast.Name):
                for key, value in _mapping_items(fn or tree,
                                                 keyword.value.id):
                    yield callee, key, value


def _differs(value: ast.AST, default) -> bool:
    """Whether ``value`` may differ from ``default``: a literal that does,
    or anything that is no literal."""
    try:
        return ast.literal_eval(value) != default
    except ValueError:
        return True


def test_every_config_switch_has_a_second_live_value(live):
    trees, _ = live
    switches = _switches(trees)
    second = {(cls, name) for path, tree in trees.items() if _is_live(path)
              for cls, name, value in _config_values(tree)
              if (cls, name) in switches
              and _differs(value, switches[cls, name])}
    single = set(switches) - second
    unkept = sorted(f"{cls}.{name}={switches[cls, name]!r}"
                    for cls, name in single
                    if (cls, name) not in KEPT_SWITCHES)
    assert unkept == [], "config switches with one live value: " + \
        ", ".join(unkept)
    assert set(KEPT_SWITCHES) <= single, \
        f"stale KEPT_SWITCHES: {sorted(set(KEPT_SWITCHES) - single)}"


_FIG7_REPEAT = ("each Fig. 7 panel test reads its own experiment's runs; "
                "the repeat costs about 0.1 s")

#: (run_id, run_id) -> why two planned units that are one simulation
#: both stay in the plan
KEPT_DUPLICATES = {
    ("fig7-middlewares/size=64,system=xrdma-BD/s0",
     "fig7-mixed-messages/size=64,system=xrdma-BD/s0"): _FIG7_REPEAT,
    ("fig7-large-sizes/size=4096,system=xrdma-BD/s0",
     "fig7-mixed-messages/size=4096,system=xrdma-BD/s0"): _FIG7_REPEAT,
    ("fig7-large-sizes/size=16384,system=xrdma-BD/s0",
     "fig7-mixed-messages/size=16384,system=xrdma-BD/s0"): _FIG7_REPEAT,
}


def test_no_two_planned_units_are_one_simulation(live):
    """Within the full plan and within the ``--quick`` plan, no two units
    run the same scenario with the same value of every parameter its
    body reads (a spec that omits one runs its default) at the same
    seed: such a pair is one simulation paid for twice."""
    functions, reach = _scenario_reach(live[0])
    defaults = {}           # scenario -> key -> the defaults its reads give
    for name, seen in reach.items():
        defaults[name] = {}
        for function in sorted(seen):
            for key, default in _param_reads(functions[function]):
                key_defaults = defaults[name].setdefault(key, set())
                if default is not _REQUIRED:
                    key_defaults.add(repr(default))
    pairs = set()
    for quick in (False, True):
        runs = {}
        for spec in specs_for(spec_names(), quick=quick):
            for unit in spec.expand():
                params = unit.params_dict
                values = tuple(
                    (key, repr(params[key]) if key in params
                     else "|".join(sorted(key_defaults)))
                    for key, key_defaults in sorted(
                        defaults[unit.scenario].items()))
                runs.setdefault((unit.scenario, values, unit.seed),
                                []).append(unit.run_id)
        for run_ids in runs.values():
            pairs.update(combinations(sorted(run_ids), 2))
    unkept = sorted(pair for pair in pairs if pair not in KEPT_DUPLICATES)
    assert unkept == [], "planned units that are one simulation: " + \
        ", ".join(" = ".join(pair) for pair in unkept)
    assert set(KEPT_DUPLICATES) <= pairs, \
        f"stale KEPT_DUPLICATES: {sorted(set(KEPT_DUPLICATES) - pairs)}"
