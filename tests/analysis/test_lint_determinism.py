"""Deterministic walk order and renderer output (the CI-diffable gate).

``run_paths`` collects, deduplicates, and globally sorts every file
before any rule runs, so the report is byte-identical regardless of
argument order, overlapping path arguments, or filesystem listing order.
The GitHub renderer gets its own escaping tests — a newline smuggled
into a workflow command truncates the annotation.
"""

import textwrap

from repro.analysis.lint import LintRunner, render_gh, render_text
from repro.analysis.lint.core import Finding

DIRTY = "import time\n\n\ndef f():\n    return time.time()\n"


def make_tree(tmp_path):
    pkg = tmp_path / "pkg"
    sub = pkg / "sub"
    sub.mkdir(parents=True)
    (pkg / "b_dirty.py").write_text(DIRTY)
    (pkg / "a_clean.py").write_text("def ok():\n    return 1\n")
    (sub / "c_dirty.py").write_text(DIRTY)
    return pkg, sub


def report(paths):
    runner = LintRunner()
    findings = runner.run_paths([str(p) for p in paths])
    return render_text(findings, runner.errors)


def test_report_identical_across_argument_orders(tmp_path):
    pkg, sub = make_tree(tmp_path)
    dirty = pkg / "b_dirty.py"
    baseline = report([pkg])
    assert report([sub, dirty, pkg / "a_clean.py"]) == baseline
    assert report([dirty, sub, pkg / "a_clean.py"]) == baseline


def test_overlapping_paths_do_not_duplicate_findings(tmp_path):
    pkg, sub = make_tree(tmp_path)
    # pkg already contains sub and the file; each file lints once.
    assert report([pkg, sub, pkg / "b_dirty.py"]) == report([pkg])


def test_findings_come_out_path_then_line_sorted(tmp_path):
    pkg, _ = make_tree(tmp_path)
    runner = LintRunner()
    findings = runner.run_paths([str(pkg)])
    keys = [(f.path, f.line, f.col) for f in findings]
    assert keys == sorted(keys)
    assert [f.path.endswith("b_dirty.py") for f in findings[:1]] == [True]


def test_golden_text_report(tmp_path):
    # Exact bytes, not just shape — this is the diff CI reviewers see.
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY)
    runner = LintRunner()
    out = render_text(runner.run_paths([str(dirty)]), runner.errors)
    assert out == textwrap.dedent(f"""\
        {dirty}:5:12: XR101[host-call] time.time() reads the host wall clock; simulated components must use sim.now (ns)
        xr-lint: 1 finding(s) — XR101[host-call]×1""")


def test_render_gh_emits_error_annotations():
    finding = Finding(rule="wall-clock", code="XR101", path="src/a.py",
                      line=5, col=11, message="wall-clock read")
    out = render_gh([finding], [])
    assert out == ("::error file=src/a.py,line=5,col=12,"
                   "title=XR101[wall-clock]::wall-clock read")


def test_render_gh_escapes_workflow_command_metacharacters():
    finding = Finding(rule="demo", code="XR999", path="src/a,b:c.py",
                      line=1, col=0,
                      message="100% broken\nsecond line")
    out = render_gh([finding], ["oops\nnewline"])
    lines = out.split("\n")
    assert len(lines) == 2  # newlines in payloads are %0A-escaped
    assert "file=src/a%2Cb%3Ac.py" in lines[0]
    assert "100%25 broken%0Asecond line" in lines[0]
    assert lines[1] == "::error title=xr-lint::oops%0Anewline"


def test_render_gh_clean_banner():
    assert render_gh([], []) == "xr-lint: clean"
