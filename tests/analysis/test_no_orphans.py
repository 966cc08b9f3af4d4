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
constructor keyword) is not a read.
"""

import ast
from pathlib import Path

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


def test_every_public_definition_has_a_caller_outside_tests():
    trees = {}
    for top in LIVE_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = trees[path] = ast.parse(path.read_text(encoding="utf-8"))
            if path.name == "__init__.py":
                tree.body = [node for node in tree.body if not isinstance(
                    node, (ast.Import, ast.ImportFrom))]
    mentioned = {path: _code_names(tree) for path, tree in trees.items()}
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


def _reads(tree: ast.AST) -> set:
    """Names the code under ``tree`` loads, plus its string constants
    (docstrings excluded)."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)}
    names = set()
    for node in ast.walk(tree):
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
