"""Benchmark harness support.

Every benchmark regenerates one of the paper's tables/figures: it reads
the fleet run records of its experiment (``@pytest.mark.figure``), prints
the paper-style rows, and asserts the qualitative *shape* the paper
reports.  The simulations are registered fleet scenarios
(:mod:`repro.fleet.figures`, and the ablation and Fig. 10 bodies in
:mod:`repro.fleet.scenarios`), planned from the ``figures`` spec set;
``python -m repro.tools.xr_fleet run --spec figures`` runs all of them.

Dispatch: at collection end the runs of the figure tests actually
collected (after ``-k`` and file selection) start in one child process,
which runs them on a ``FleetPool`` with one worker per core into a
temporary ``ResultStore``, longest budget first.  Figure tests are
ordered after every other test, so this process runs the unit tests
while the workers run the figures; each figure test then waits only for
its own records.  Session end interrupts the child, whose pool cancels
and reaps its workers.

Tables are persisted to ``benchmarks/results/`` only when
``XR_WRITE_RESULTS=1`` is set: a plain ``pytest`` run must leave the
directory byte-identical (regenerating committed tables on every
developer run made every benchmark invocation dirty the tree), which
the session fixture below enforces against *any* writer.
"""

import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import pytest

from repro.fleet import FleetPool, ResultStore, plan
from repro.fleet.experiments import specs_for

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: how often a figure test re-reads the sweep's records
_POLL_S = 0.2
#: how long the interrupted sweep gets to cancel before its group is killed
_CANCEL_S = 30.0

#: the session's figure sweep, once started: (child, store, planned units)
_SWEEP = pytest.StashKey()


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


# ------------------------------------------------------- figure dispatch
def pytest_configure(config):
    config.addinivalue_line(
        "markers", "figure(experiment, seed=None): the test reads the runs "
        "of this `figures` experiment (only those at `seed`, if given)")


def figure_run_ids(marker, units):
    """The run_ids, in plan order, that a ``figure`` marker selects."""
    seed = marker.kwargs.get("seed")
    return [unit.run_id for unit in units
            if unit.experiment == marker.args[0]
            and seed in (None, unit.seed)]


def pytest_collection_modifyitems(items):
    # Stable: figure tests keep their order, after every other test.
    items.sort(key=lambda item: item.get_closest_marker("figure") is not None)


def pytest_collection_finish(session):
    """Start the runs of every collected figure test in one child."""
    markers = [item.get_closest_marker("figure") for item in session.items]
    markers = [marker for marker in markers if marker is not None]
    if session.config.option.collectonly or not markers:
        return
    units = plan(specs_for(["figures"]))
    wanted = {run_id for marker in markers
              for run_id in figure_run_ids(marker, units)}
    root = pathlib.Path(tempfile.mkdtemp(prefix="xr-figures-"))
    # The child imports what this process imports, from the same paths.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    with open(root / "sweep.log", "w") as log:
        # A new session makes the child and its workers one process
        # group, which teardown can kill whole if cancelling stalls.
        child = subprocess.Popen(  # xr-lint: disable=host-call
            [sys.executable, "-c",
             "import sys; from benchmarks.conftest import run_sweep; "
             "run_sweep(sys.argv[1], sys.argv[2:])",
             str(root), *sorted(wanted)],
            env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
    session.config.stash[_SWEEP] = (child, ResultStore(root), units)


def run_sweep(root, run_ids):
    """The child's body: run ``run_ids`` of the ``figures`` set into a
    store at ``root``, longest budget first so the longest figure does
    not start last."""
    specs = specs_for(["figures"])
    wanted = set(run_ids)
    units = sorted((unit for unit in plan(specs) if unit.run_id in wanted),
                   key=lambda unit: -unit.timeout_s)
    store = ResultStore(pathlib.Path(root))
    store.begin(specs, units)
    try:
        FleetPool(jobs=os.cpu_count() or 1).run(units, store)
    finally:
        store.close()


def pytest_sessionfinish(session):
    """Interrupt the sweep (its pool records the runs in flight
    ``cancelled`` and reaps its workers), then remove its store."""
    sweep = session.config.stash.get(_SWEEP, None)
    if sweep is None:
        return
    child, store, _units = sweep
    if child.poll() is None:
        child.send_signal(signal.SIGINT)
        try:
            child.wait(timeout=_CANCEL_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    shutil.rmtree(store.root, ignore_errors=True)


def await_records(store, run_ids, running):
    """The records of ``run_ids``, in order, once every one has landed.

    Fails the calling test on a record whose run did not end ``ok`` (with
    its status and reason), on a run with invariant violations or
    TieAudit anomalies, and on a run with no record once ``running()``
    says the sweep has exited.
    """
    while True:
        # Read liveness first: a sweep seen exited has written everything.
        exited = not running()
        records = {record["run_id"]: record
                   for record in store.load_records()}
        if exited or all(run_id in records for run_id in run_ids):
            break
        time.sleep(_POLL_S)  # xr-lint: disable=host-call
    for run_id in run_ids:
        record = records.get(run_id)
        if record is None:
            log = store.root / "sweep.log"
            tail = log.read_text().splitlines()[-5:] if log.exists() else []
            pytest.fail(f"{run_id}: no record; the figure sweep exited\n"
                        + "\n".join(tail))
        if record["status"] != "ok":
            pytest.fail(f"{run_id}: {record['status']}: {record['reason']}")
        if record["invariant_violations"] or record["tie_anomalies"]:
            pytest.fail(f"{run_id}: {record['invariant_violations']} "
                        f"invariant violation(s), {record['tie_anomalies']} "
                        f"tie anomaly(ies)")
    return [records[run_id] for run_id in run_ids]


@pytest.fixture
def figure_runs(request):
    """The records of the test's ``figure`` experiment, in plan order."""
    child, store, units = request.config.stash[_SWEEP]
    marker = request.node.get_closest_marker("figure")
    return await_records(store, figure_run_ids(marker, units),
                         lambda: child.poll() is None)
