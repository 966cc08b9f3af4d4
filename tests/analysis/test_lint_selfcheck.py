"""The xr-lint self-check: the real tree must stay clean (tier-1 gate).

This is the enforcement half of the linter — the rules only have teeth
because this test fails the suite the moment a wall-clock read, a leaked
allocation, or a swallowed SimulationError lands anywhere in ``src/``,
``tests/``, ``benchmarks/``, or ``examples/``.  Fix the finding, or
suppress it with an explanatory ``# xr-lint: disable=<rule>`` comment if
the pattern is intentional.
"""

import json
from pathlib import Path

from repro.analysis.lint import LintRunner, render_json, render_text
from repro.tools.xr_lint import DEFAULT_PATHS, main

REPO_ROOT = Path(__file__).resolve().parents[2]


def tree_paths():
    return [str(REPO_ROOT / p) for p in DEFAULT_PATHS
            if (REPO_ROOT / p).exists()]


def test_repository_is_lint_clean():
    runner = LintRunner()
    findings = runner.run_paths(tree_paths())
    assert runner.errors == [], runner.errors
    assert findings == [], "\n" + render_text(findings, runner.errors)


def test_cli_exit_codes(capsys, tmp_path):
    # Clean tree → 0 with the clean banner.
    clean = tmp_path / "clean.py"
    clean.write_text("def ok():\n    return 1\n")
    assert main([str(clean)]) == 0
    assert "xr-lint: clean" in capsys.readouterr().out

    # A finding → 1, and the finding is on stdout flake8-style.
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\n\n\ndef f():\n    return time.time()\n")
    assert main([str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "XR101[host-call]" in out
    assert f"{dirty}:5:" in out

    # Unparseable file → 2 with an ERROR line.
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    assert main([str(broken)]) == 2
    assert "ERROR" in capsys.readouterr().out

    # Unknown rule name → 2 (usage error, message on stderr).
    assert main(["--select", "no-such-rule", str(clean)]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_json_format(capsys, tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\n\n\ndef f():\n    return time.time()\n")
    assert main(["--format", "json", str(dirty)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 1
    assert payload["findings"][0]["code"] == "XR101"
    assert payload["findings"][0]["line"] == 5


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("XR101", "XR201", "XR303"):
        assert code in out


def test_render_json_is_stable():
    # sort_keys + indent: byte-identical across runs, diffable in CI.
    assert render_json([], []) == render_json([], [])
    assert json.loads(render_json([], ["x: syntax error"]))["errors"] == [
        "x: syntax error"]
