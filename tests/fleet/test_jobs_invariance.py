"""The headline fleet guarantee: ``--jobs N`` never changes the results.

Runs the committed ``smoke`` spec set through the real CLI twice — one
worker, then four — and byte-compares ``aggregate.json``.  Everything the
guarantee rests on is exercised for real: forked workers, out-of-order
completion, the JSONL store, and the canonical aggregator.
"""

import json
from pathlib import Path

from repro.tools import xr_fleet


def run_sweep(tmp_path: Path, jobs: int) -> Path:
    out = tmp_path / f"jobs{jobs}"
    code = xr_fleet.main(["run", "--spec", "smoke", "--jobs", str(jobs),
                          "--out", str(out), "--json"])
    assert code == 0, f"smoke sweep at --jobs {jobs} did not end clean"
    return out


def test_aggregate_bytes_identical_across_jobs(tmp_path):
    solo = run_sweep(tmp_path, jobs=1)
    fleet = run_sweep(tmp_path, jobs=4)
    solo_bytes = (solo / "aggregate.json").read_bytes()
    fleet_bytes = (fleet / "aggregate.json").read_bytes()
    assert solo_bytes == fleet_bytes

    # The guarantee is meaningful only if the sweep actually did work:
    # every planned run finished ok and produced a schedule digest.
    aggregate = json.loads(solo_bytes)
    totals = aggregate["totals"]
    assert totals["runs"] == totals["ok"] > 0
    assert totals["invariant_violations"] == 0
    assert totals["tie_anomalies"] == 0
    for run in aggregate["runs"].values():
        assert run["digest"], "every ok run must carry a schedule digest"

    # And the manifest records what differed (jobs) without polluting the
    # invariant artifact.
    solo_manifest = json.loads((solo / "manifest.json").read_text())
    fleet_manifest = json.loads((fleet / "manifest.json").read_text())
    assert solo_manifest["jobs"] == 1
    assert fleet_manifest["jobs"] == 4
