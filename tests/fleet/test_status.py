"""``xr_fleet status`` reads only run ids from ``plan.json``.

A sweep directory may have been written by another version of the
fleet, whose spec entries carry fields this one does not know; status
must still report it, and a malformed plan is "not a sweep directory"
(exit 2), never a traceback.
"""

import json

from repro.fleet.store import canonical_json
from repro.tools import xr_fleet

UNITS = ["exp/x=1/s0", "exp/x=2/s0"]


def write_sweep(root, plan, records=()):
    root.mkdir()
    (root / "plan.json").write_text(canonical_json(plan), encoding="utf-8")
    (root / "runs.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in records),
        encoding="utf-8")
    return root


def test_status_reads_a_plan_with_unknown_spec_fields(tmp_path, capsys):
    spec = {"name": "exp", "scenario": "drill-healthy",
            "grid": {"x": [1, 2]}, "seeds": [0], "timeout_s": 120.0,
            "max_retries": 2, "max_events": None, "description": "",
            "not_a_spec_field": True}
    out = write_sweep(tmp_path / "sweep", {"specs": [spec], "units": UNITS},
                      [{"run_id": "exp/x=1/s0", "status": "ok"}])
    assert xr_fleet.main(["status", "--out", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"planned": 2, "recorded": 1, "pending": 1,
                       "by_status": {"ok": 1}}

    assert xr_fleet.main(["status", "--out", str(out)]) == 0
    assert "pending: exp/x=2/s0" in capsys.readouterr().out


def test_status_rejects_a_malformed_plan(tmp_path, capsys):
    for name, plan in (("units-not-a-list", {"specs": [], "units": 5}),
                       ("unit-not-a-string", {"units": [["exp"]]}),
                       ("no-units", {"specs": []}),
                       ("not-an-object", [UNITS])):
        out = write_sweep(tmp_path / name, plan)
        assert xr_fleet.main(["status", "--out", str(out)]) == 2
        assert "not a sweep directory" in capsys.readouterr().err


def test_status_without_a_plan_is_not_a_sweep(tmp_path, capsys):
    assert xr_fleet.main(["status", "--out", str(tmp_path)]) == 2
    assert "not a sweep directory" in capsys.readouterr().err
