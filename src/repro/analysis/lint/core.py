"""The xr-lint engine: rule registry, suppressions, file walking.

A :class:`Rule` inspects one parsed module and yields :class:`Finding`
objects.  The :class:`LintRunner` parses each file once, hands the same
tree to every enabled rule, and drops findings suppressed by
``# xr-lint: disable=...`` comments.  Rules never import the modules they
check — analysis is purely syntactic, so the linter can run over broken
or import-cycle-ridden code.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Optional, Set, Tuple,
                    Type)

from repro.analysis.lint.callgraph import CallGraph

#: matches the suppression comment (applied to COMMENT tokens, so
#: suppression text inside string literals — lint-test fixtures, help
#: epilogs — is never mistaken for a live suppression)
_SUPPRESS_RE = re.compile(
    r"#\s*xr-lint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_,\- ]+)")

#: directories never walked — ``lint_fixtures`` holds deliberately
#: defective sources (the pre-fix PR 6 code) that the rule tests lint
#: explicitly via ``run_source``
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "venv", "build", "dist",
              ".mypy_cache", ".ruff_cache", ".pytest_cache", "results",
              "lint_fixtures"}

#: Per-tree rule exemptions (the flake8 per-file-ignores analogue): any
#: path with one of these directory components skips the listed rules.
#: Unit tests deliberately exercise bare acquire paths — the cluster
#: fixture owns teardown — so the leak-pairing rules stay out of tests/;
#: the same reasoning exempts the interprocedural exception-edge rule
#: there and in benchmarks/.  Wait-loops in tests and benchmarks run
#: under an explicit ``Simulator.run(until=...)`` / ``run_until_event``
#: horizon, so the unbounded-yield-loop doctrine is enforced by the
#: harness, not the loop.  Examples are didactic happy paths whose
#: cluster teardown reclaims every resource.
PATH_RULE_EXEMPTIONS: Dict[str, frozenset] = {
    "tests": frozenset({"memcache-leak", "qp-leak", "exception-edge-leak",
                        "unbounded-yield-loop"}),
    "benchmarks": frozenset({"exception-edge-leak", "unbounded-yield-loop"}),
    "examples": frozenset({"exception-edge-leak"}),
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str            #: rule name, e.g. ``host-call``
    code: str            #: stable code, e.g. ``XR101``
    path: str            #: file the finding is in
    line: int            #: 1-based line
    col: int             #: 0-based column
    message: str         #: human explanation with the offending expression

    def sort_key(self):
        return (self.path, self.line, self.col, self.code)


class Rule:
    """Base class: subclass, set the class attributes, implement check().

    ``name`` is the suppression/selection handle (kebab-case), ``code`` a
    stable short identifier grouped by family (XR1xx determinism, XR2xx
    resource pairing, XR3xx sim hygiene).
    """

    name: str = ""
    code: str = ""
    summary: str = ""

    def check(self, tree: ast.Module, ctx: "FileContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: "FileContext", node: ast.AST,
                message: str) -> Finding:
        return Finding(rule=self.name, code=self.code, path=ctx.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0), message=message)


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.name or not cls.code:
        raise ValueError(f"rule {cls.__name__} needs name and code")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def all_rules() -> List[Type[Rule]]:
    """Registered rule classes, ordered by code."""
    return sorted(_REGISTRY.values(), key=lambda cls: cls.code)


def get_rule(name: str) -> Type[Rule]:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown rule {name!r}; known rules: {known}") from None


@register
class StaleSuppressionRule(Rule):
    """A ``# xr-lint: disable=`` comment must still suppress something.

    Suppressions rot: the excused code moves or gets fixed, the comment
    stays, and the next *real* finding on that line is silently eaten.
    The engine audits every suppression after the per-file rule runs
    (:meth:`FileContext.stale_suppressions`) and reports the ones that
    matched zero findings, plus ones naming rules that do not exist.
    ``check()`` is intentionally empty — this rule exists so the audit
    shows up in ``--list-rules`` and participates in select/ignore like
    any other rule; its findings come from the engine.
    """

    name = "stale-suppression"
    code = "XR001"
    summary = ("suppression comment matches no finding (rotten "
               "`# xr-lint: disable=` audit)")

    def check(self, tree: ast.Module, ctx: "FileContext") -> Iterator[Finding]:
        return iter(())


@dataclass
class SuppressionEntry:
    """One ``# xr-lint: disable[-file]=...`` comment and its usage."""

    lineno: int                  #: line the comment sits on
    scope: str                   #: ``disable`` | ``disable-file``
    rules: Tuple[str, ...]       #: rule names as written, in order
    used: Set[str] = field(default_factory=set)
    #: the subset of ``rules`` that actually matched a finding


@dataclass
class FileContext:
    """Per-file state shared by every rule: source, imports, suppressions."""

    path: str
    source: str
    suppressions: List[SuppressionEntry] = field(default_factory=list)
    #: local name -> dotted module/object it refers to (import tracking)
    imports: Dict[str, str] = field(default_factory=dict)
    #: project call graph (set by the runner; rules_flow consumes it)
    callgraph: Optional[CallGraph] = None

    @classmethod
    def build(cls, path: str, source: str, tree: ast.Module,
              callgraph: Optional[CallGraph] = None) -> "FileContext":
        ctx = cls(path=path, source=source, callgraph=callgraph)
        ctx._scan_suppressions()
        ctx._scan_imports(tree)
        return ctx

    def _scan_suppressions(self) -> None:
        for lineno, comment in self._comment_tokens():
            match = _SUPPRESS_RE.search(comment)
            if not match:
                continue
            scope, names = match.groups()
            rules = tuple(name.strip() for name in names.split(",")
                          if name.strip())
            if rules:
                self.suppressions.append(
                    SuppressionEntry(lineno=lineno, scope=scope, rules=rules))

    def _comment_tokens(self) -> Iterator[Tuple[int, str]]:
        """(lineno, text) of each comment — tokenizer-accurate, so
        suppression lookalikes inside string literals don't count."""
        readline = io.StringIO(self.source).readline
        try:
            for token in tokenize.generate_tokens(readline):
                if token.type == tokenize.COMMENT:
                    yield token.start[0], token.string
        except (tokenize.TokenError, IndentationError, SyntaxError):
            # Tokenization can fail where ast.parse succeeded only in
            # exotic cases; fall back to the physical-line scan.
            for lineno, line in enumerate(self.source.splitlines(), start=1):
                if "#" in line:
                    yield lineno, line[line.index("#"):]

    def _scan_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # `import a.b` binds `a`; `import a.b as c` binds a.b.
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imports[local] = f"{node.module}.{alias.name}"

    # ----------------------------------------------------------- resolution
    def resolved_name(self, node: ast.AST) -> Tuple[Optional[str], bool]:
        """Dotted path of a Name/Attribute chain with imports resolved
        (``np.random.default_rng`` → ``numpy.random.default_rng`` under
        ``import numpy as np``; None for calls, subscripts, ...), and
        whether the chain's root went through an import in this file.

        Module-dotted patterns (``time.sleep``, ``requests.get``) must only
        match import-resolved names — a local list named ``requests`` makes
        ``requests.append(...)`` look like the HTTP library otherwise.
        Undotted builtins (``input``) resolve with ``False``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None, False
        parts.append(node.id)
        parts.reverse()
        root = self.imports.get(parts[0])
        if root is not None:
            parts[0:1] = root.split(".")
        return ".".join(parts), root is not None

    def suppressed(self, finding: Finding) -> bool:
        """Does a suppression cover this finding?  Marks every covering
        entry used (feeding the stale-suppression audit) — so no
        short-circuiting."""
        hit = False
        for entry in self.suppressions:
            if entry.scope == "disable" and entry.lineno != finding.line:
                continue
            for name in entry.rules:
                # The `all` wildcard never covers the audit's own
                # findings — a stale comment can't self-excuse; waiving
                # the audit takes an explicit `stale-suppression`.
                wildcard = (name == "all"
                            and finding.rule != StaleSuppressionRule.name)
                if name == finding.rule or wildcard:
                    entry.used.add(name)
                    hit = True
        return hit

    def stale_suppressions(self, checkable: Set[str]) -> Iterator[Finding]:
        """Audit findings for suppression entries that earned no keep.

        ``checkable`` is the set of rule names that actually ran on this
        file (enabled and not path-exempt): a suppression of a rule that
        didn't run is unprovable either way and stays silent.  Rule names
        nobody registered are always reported — they suppress nothing
        today and mask a typo'd intent.
        """
        for entry in self.suppressions:
            for name in entry.rules:
                if name in entry.used:
                    continue
                if name == "all":
                    if not entry.used:
                        yield self._stale_finding(
                            entry, "suppresses no findings — delete it or "
                            "narrow it to the rule it was meant for")
                elif name not in _REGISTRY:
                    yield self._stale_finding(
                        entry, f"names unknown rule {name!r} — it can never "
                        f"suppress anything (typo?)")
                elif name in checkable:
                    yield self._stale_finding(
                        entry, f"suppresses no {name!r} finding — the code "
                        f"it excused has moved or been fixed; delete the "
                        f"comment so future findings surface")

    def _stale_finding(self, entry: SuppressionEntry, detail: str) -> Finding:
        return Finding(
            rule=StaleSuppressionRule.name, code=StaleSuppressionRule.code,
            path=self.path, line=entry.lineno, col=0,
            message=f"`# xr-lint: {entry.scope}={','.join(entry.rules)}` "
                    f"{detail}")


class LintRunner:
    """Parses files and runs every enabled rule over them.

    Directory runs are two-phase: every file is collected (deduplicated,
    globally sorted — output is byte-identical across filesystems) and
    parsed first, a project :class:`CallGraph` is built over all trees,
    and only then do rules run, so the interprocedural XR4xx family sees
    the whole linted set regardless of file order.
    """

    def __init__(self, select: Optional[Iterable[str]] = None,
                 ignore: Optional[Iterable[str]] = None,
                 check_suppressions: bool = True):
        self.check_suppressions = check_suppressions
        wanted, dropped = set(select or ()), set(ignore or ())
        for name in sorted(wanted | dropped):
            get_rule(name)  # validate
        self.rules: List[Rule] = [
            cls() for cls in all_rules()
            if (not wanted or cls.name in wanted) and cls.name not in dropped]
        self.errors: List[str] = []     #: files that failed to parse

    # ------------------------------------------------------------- running
    def run_source(self, source: str, path: str) -> List[Finding]:
        """Lint one in-memory module; the workhorse for fixture linting.

        The call graph covers just this module — interprocedural facts
        resolve against the fixture itself (tests embed callee stubs and
        handler sites directly in the fixture source).
        """
        tree = self._parse(source, path)
        return self._run_parsed([] if tree is None else [(path, source, tree)])

    def _parse(self, source: str, path: str) -> Optional[ast.Module]:
        try:
            return ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.errors.append(f"{path}: syntax error: {exc.msg} "
                               f"(line {exc.lineno})")
            return None

    def _run_module(self, path: str, source: str, tree: ast.Module,
                    graph: CallGraph) -> List[Finding]:
        ctx = FileContext.build(path, source, tree, callgraph=graph)
        exempt = self._exempt_rules(path)
        findings: List[Finding] = []
        ran: Set[str] = set()
        for rule in self.rules:
            if rule.name in exempt:
                continue
            ran.add(rule.name)
            for finding in rule.check(tree, ctx):
                if not ctx.suppressed(finding):
                    findings.append(finding)
        if self.check_suppressions and StaleSuppressionRule.name in ran:
            for finding in ctx.stale_suppressions(checkable=ran):
                if not ctx.suppressed(finding):
                    findings.append(finding)
        return findings

    def _exempt_rules(self, path: str) -> Set[str]:
        exempt: Set[str] = set()
        for part in Path(path).parts:
            exempt |= PATH_RULE_EXEMPTIONS.get(part, frozenset())
        return exempt

    def _read(self, path: Path) -> Optional[str]:
        try:
            return path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            self.errors.append(f"{path}: unreadable: {exc}")
            return None

    def _collect_files(self, paths: Iterable[str]) -> List[Path]:
        """Every ``*.py`` under the given paths: deduplicated and sorted
        by path string, so the walk (and therefore every report) is
        deterministic across filesystems and argument orders."""
        seen: Dict[str, Path] = {}
        for raw in paths:
            root = Path(raw)
            if root.is_file():
                seen.setdefault(str(root), root)
                continue
            if not root.is_dir():
                self.errors.append(f"{root}: no such file or directory")
                continue
            for file in root.rglob("*.py"):
                if any(part in _SKIP_DIRS for part in file.parts):
                    continue
                seen.setdefault(str(file), file)
        return [seen[key] for key in sorted(seen)]

    def run_paths(self, paths: Iterable[str]) -> List[Finding]:
        """Lint every ``*.py`` under each path (files accepted directly)."""
        parsed: List[Tuple[str, str, ast.Module]] = []
        for file in self._collect_files(paths):
            source = self._read(file)
            if source is None:
                continue
            tree = self._parse(source, str(file))
            if tree is not None:
                parsed.append((str(file), source, tree))
        return self._run_parsed(parsed)

    def _run_parsed(self, parsed: List[Tuple[str, str, ast.Module]]
                    ) -> List[Finding]:
        """Every rule over each module, one call graph over them all."""
        graph = CallGraph.build((path, tree) for path, _, tree in parsed)
        findings = [finding for path, source, tree in parsed
                    for finding in self._run_module(path, source, tree, graph)]
        findings.sort(key=Finding.sort_key)
        return findings
