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
``tests/`` — loaded as an attribute or name, or named by a string key
(``snapshot()["data_bytes_delivered"]``) — or sit in ``KEPT_STATE`` with
the reason it is read only by reflection.  A store (``=``, ``+=``, a
constructor keyword) is not a read, and neither is a load that only writes
through the object: the receiver of a mutating call used as a statement
(``self.log.append(x)``) or the base of a subscript store or ``del``
(``self.table[k] = v``), so an append-only list is write-only.

The audit matches names, not bindings, so a name collision counts as a
caller: a local variable ``table`` elsewhere kept the unused
``analysis.report.table`` passing until it was deleted by hand.

The options audit as a test (EXPERIMENTS.md, "Every knob has a second
value in use"): every key a registered fleet scenario reads from
``ctx.params`` must take two distinct values across the full and
``--quick`` spec sets, or sit in ``KEPT_PARAMS`` with its reason.  A
knob with one value in use is a constant.

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


def _code_names(tree: ast.AST, skip: ast.AST = None) -> set:
    """Identifiers the code under ``tree`` mentions (``skip`` and any
    ``__all__`` assignment excluded)."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip or (isinstance(node, ast.Assign) and any(
                getattr(t, "id", "") == "__all__" for t in node.targets)):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return names


@pytest.fixture(scope="module")
def live():
    """Every live module's AST by path (a package ``__init__``'s imports,
    its re-exports, stripped), and the identifiers each one mentions."""
    trees = {}
    for top in LIVE_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = trees[path] = ast.parse(path.read_text(encoding="utf-8"))
            if path.name == "__init__.py":
                tree.body = [node for node in tree.body if not isinstance(
                    node, (ast.Import, ast.ImportFrom))]
    return trees, {path: _code_names(tree) for path, tree in trees.items()}


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


#: method name -> why it stays with no live mention
KEPT_METHODS = {
    "dereg_mem": "Table I API (xrdma_dereg_mem); user: "
                 "tests/xrdma/test_api_surface.py",
    "get_event_fd": "Table I API (xrdma_get_event_fd); user: "
                    "tests/xrdma/test_api_surface.py",
    "is_engaged": "Sec. VI-C Mock's state query: the socket outlives "
                  "disengage(), so nothing else shows which transport a "
                  "channel's new sends take; user: the detour suites",
    "process_event": "Table I API (xrdma_process_event); user: "
                     "tests/xrdma/test_api_surface.py",
    "reg_mem": "Table I API (xrdma_reg_mem); user: "
               "tests/xrdma/test_api_surface.py",
    "run_source": "the lint fixture runner: every rule's positive and "
                  "negative fixture is linted through it",
    "trace_request": "Table I API (xrdma_trace_request); user: "
                     "tests/xrdma/test_api_surface.py",
}


def test_every_public_method_has_a_caller_outside_tests(live):
    trees, mentioned = live
    orphans, unmentioned = [], set()
    for path, tree in trees.items():
        if ROOT / "src" not in path.parents:
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (not isinstance(node, ast.FunctionDef)
                        or node.name.startswith("_")):
                    continue
                if any(node.name in names for other, names in mentioned.items()
                       if other != path) \
                        or node.name in _code_names(tree, node):
                    continue
                unmentioned.add(node.name)
                if node.name not in KEPT_METHODS:
                    orphans.append(
                        f"{path.relative_to(ROOT)}:{cls.name}.{node.name}")
    assert orphans == [], "no caller outside tests/: " + ", ".join(orphans)
    assert set(KEPT_METHODS) <= unmentioned, \
        f"stale KEPT_METHODS: {sorted(set(KEPT_METHODS) - unmentioned)}"


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


def _callee(call: ast.Call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


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
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
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
    "fork_safe": "Table III field; read through fields() by "
                 "XrdmaConfig.snapshot() and XR-Adm",
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
    """Names the code under ``tree`` loads, plus its string constants
    (docstrings excluded); a load that only writes through the object
    (:func:`_write_loads`) is no read."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)}
    writes = _write_loads(tree)
    names = set()
    for node in ast.walk(tree):
        if id(node) in writes:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def test_no_stored_member_is_write_only():
    read, stored = set(), {}
    for top in READER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == Path(__file__).resolve():
                continue            # KEPT_STATE's own keys are no reads
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read |= _reads(tree)
            if top != "src":
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
    return (getattr(node, "id", None) == "params"
            or getattr(node, "attr", None) == "params")


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


def _scenario_reach():
    """Every top-level fleet function by name, and for each registered
    scenario the set of those functions its body reaches by call."""
    resolve_scenario("smoke-incast")        # registers every scenario
    functions = {}
    for path in sorted((ROOT / "src" / "repro" / "fleet").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
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


def test_every_scenario_param_has_two_values():
    functions, reach = _scenario_reach()
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


def test_no_two_planned_units_are_one_simulation():
    """Within the full plan and within the ``--quick`` plan, no two units
    run the same scenario with the same value of every parameter its
    body reads (a spec that omits one runs its default) at the same
    seed: such a pair is one simulation paid for twice."""
    functions, reach = _scenario_reach()
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
