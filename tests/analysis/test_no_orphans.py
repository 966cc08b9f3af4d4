"""The caller audit as a test (EXPERIMENTS.md, "The caller audit, top half").

Every public top-level class or function in ``src/repro`` must be named
by code in ``src/``, ``bench/``, ``benchmarks/`` or ``examples/`` other
than its own definition — or sit in ``KEPT`` with the caller table's
one-line reason.  Not callers: ``tests/``, docstrings and comments, a
package ``__init__``'s re-exports, any ``__all__``.  A definition
registered by decorator (``@register`` lint rules, ``@scenario`` fleet
scenarios) is called through its registry.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
LIVE_DIRS = ("src", "bench", "benchmarks", "examples")
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
