"""Finding renderers: terminal text, machine-readable JSON, and GitHub
workflow annotations."""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable, List, Sequence

from repro.analysis.lint.core import Finding


def render_text(findings: Sequence[Finding], errors: Iterable[str]) -> str:
    """flake8-style one-line-per-finding report with a summary footer."""
    lines: List[str] = []
    for finding in findings:
        lines.append(f"{finding.path}:{finding.line}:{finding.col + 1}: "
                     f"{finding.code}[{finding.rule}] {finding.message}")
    for error in errors:
        lines.append(f"ERROR {error}")
    if findings:
        by_rule = Counter(f"{f.code}[{f.rule}]" for f in findings)
        breakdown = ", ".join(f"{name}×{count}"
                              for name, count in sorted(by_rule.items()))
        lines.append(f"xr-lint: {len(findings)} finding(s) — {breakdown}")
    else:
        lines.append("xr-lint: clean")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], errors: Iterable[str]) -> str:
    """Stable JSON for CI annotation tooling."""
    payload = {
        "findings": [
            {
                "rule": finding.rule,
                "code": finding.code,
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "message": finding.message,
            }
            for finding in findings
        ],
        "errors": list(errors),
        "total": len(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _gh_escape(text: str, in_property: bool = False) -> str:
    """Escape data for GitHub workflow commands (their own %-encoding)."""
    text = text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    if in_property:
        text = text.replace(":", "%3A").replace(",", "%2C")
    return text


def render_gh(findings: Sequence[Finding], errors: Iterable[str]) -> str:
    """GitHub Actions annotations: one ``::error`` workflow command per
    finding, so findings surface inline on the PR diff."""
    lines: List[str] = []
    for finding in findings:
        title = _gh_escape(f"{finding.code}[{finding.rule}]",
                           in_property=True)
        lines.append(
            f"::error file={_gh_escape(finding.path, in_property=True)},"
            f"line={finding.line},col={finding.col + 1},title={title}"
            f"::{_gh_escape(finding.message)}")
    for error in errors:
        lines.append(f"::error title=xr-lint::{_gh_escape(error)}")
    if not lines:
        return "xr-lint: clean"
    return "\n".join(lines)
