"""Ledger goldens: the four ``bench/`` workloads fire the committed counts.

The performance record is the ``bench/`` ledger, and the part of it that
repeats exactly — not host time — is what gets pinned.  Each workload
runs one quick pass plain and one instrumented at seed 1, and must
reproduce the committed ``golden_ledger.json``: the plain pass's event
count (the ledger's ``sim.events``), ``sim_p50_us``, ``sim_tail_us`` and
completed operations, and the instrumented pass's TieAudit digest with
zero invariant violations.  Every pass must also conserve segments:
``net.segments_sent == net.segments_delivered + net.drops``.

Same rule as ``golden_digests.json`` (DESIGN.md, "digest equivalence is
the license to optimize"): a PR that removes events re-derives the
goldens it moves and proves results another way — here ``sim_p50_us``,
``sim_tail_us`` and ``completed`` must then stay put while ``events`` and
``digest`` move, and the PR names the new counts.  Host time is reported
by the ledger and never gated.

To bless an *intentional* change, regenerate the goldens:

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest -q \
        tests/scenarios/test_ledger_golden.py

then review the diff of ``golden_ledger.json`` like any other code.
"""

import json
import os
from pathlib import Path

import pytest

from bench.workloads import WORKLOADS, run_pass
from repro.analysis import invariants

GOLDEN_PATH = Path(__file__).with_name("golden_ledger.json")
SEED = 1


def _load_golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _update_golden(workload, observed):
    golden = _load_golden() if GOLDEN_PATH.exists() else {}
    golden[workload] = observed
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_matches_golden_ledger(workload):
    # run_pass owns the registry: none on the plain pass (what users
    # run), its own counting one on the instrumented pass.
    saved = invariants.uninstall()
    try:
        plain = run_pass(workload, SEED, "quick")
        audited = run_pass(workload, SEED, "quick", instrument=True)
    finally:
        invariants.install(saved)

    for result in (plain, audited):
        assert result.failed == 0
        assert all(result.checks.values()), result.checks
        assert result.invariant_violations == 0
        counters = result.counters
        assert counters["net.segments_sent"] == (
            counters["net.segments_delivered"] + counters["net.drops"])

    observed = {"events": plain.events, "completed": plain.completed,
                "sim_p50_us": plain.sim_p50_us,
                "sim_tail_us": plain.sim_tail_us,
                "digest": audited.digest}
    if os.environ.get("REGEN_GOLDEN"):
        _update_golden(workload, observed)
        pytest.skip(f"regenerated golden ledger for {workload}")
    assert observed == _load_golden()[workload], (
        f"{workload}: the ledger moved — if intentional, regenerate the "
        f"goldens (see module docstring), review the diff and name the "
        f"new counts in the PR")
