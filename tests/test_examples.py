"""Every ``examples/*.py`` runs to completion, in-process.

The examples are the README's first contact with the package and nothing
else executes them.  Each runs as ``__main__`` under the suite's autouse
fatal invariant registry, so an example that trips a protocol invariant,
times out its own ``run_until_event`` limit or raises fails here.
"""

import pathlib
import runpy

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).parent.parent / "examples")
                  .glob("*.py"))
assert EXAMPLES, "examples/ moved: an empty parametrize would pass silently"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_clean(path, fatal_invariants, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()      # each prints its summary
    assert fatal_invariants.total == 0
