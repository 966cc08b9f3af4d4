"""Benchmark harness support.

Every benchmark regenerates one of the paper's tables/figures: it runs the
scenario inside pytest-benchmark (so wall-clock cost is tracked), prints the
paper-style rows, and asserts the qualitative *shape* the paper reports.

Tables are persisted to ``benchmarks/results/`` only when
``XR_WRITE_RESULTS=1`` is set: a plain ``pytest`` run must leave the
directory byte-identical (regenerating committed tables on every
developer run made every benchmark invocation dirty the tree), which
the session fixture below enforces against *any* writer.
"""

import os
import pathlib

import pytest

from repro.analysis import invariants

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def results_snapshot():
    """The bytes of every file under ``benchmarks/results/``, by name."""
    return {path.name: path.read_bytes() for path in RESULTS_DIR.iterdir()}


def results_changed_since(before):
    """Names added, changed or deleted since the ``before`` snapshot."""
    after = results_snapshot()
    return sorted(name for name in before.keys() | after.keys()
                  if before.get(name) != after.get(name))


@pytest.fixture(scope="session", autouse=True)
def results_dir_untouched():
    """No test may add, change or delete a committed table unless the
    run opted in.  Compares the directory with itself across the
    session — not with git — so it sees writers wherever they sit in
    collection order and does not fail a working tree that regenerated
    or deleted a table on purpose."""
    before = results_snapshot()
    yield
    if os.environ.get("XR_WRITE_RESULTS") != "1":
        changed = results_changed_since(before)
        assert not changed, (
            "benchmarks/results/ modified by a test run without "
            f"XR_WRITE_RESULTS=1: {changed}")


@pytest.fixture(autouse=True)
def counting_invariants():
    """Benchmarks run under a count-mode registry: violations are recorded
    (and sampled into the Monitor's ``*.invariant_violations`` series) but
    never abort the run, mirroring production count-and-report."""
    registry = invariants.install(mode="count")
    yield registry
    if registry.total:
        print(f"\n[invariants] {registry.total} violation(s): "
              f"{registry.summary()}")
    invariants.uninstall()


def emit(name: str, lines):
    """Print a result table; persist it only when explicitly asked.

    Set ``XR_WRITE_RESULTS=1`` to (re)generate the committed
    ``benchmarks/results/`` tables.  The default is print-only so a plain
    ``pytest`` run never touches the working tree.
    """
    text = "\n".join(lines)
    print(f"\n===== {name} =====")
    print(text)
    if os.environ.get("XR_WRITE_RESULTS") == "1":
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture
def once(benchmark):
    """Run a scenario exactly once under pytest-benchmark."""
    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)
    return runner
