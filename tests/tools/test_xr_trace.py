"""xr_trace CLI: golden JSON output under a fixed seed, plus file
handling edge cases.

Regenerate the golden after an intentional report-format change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest -q \
        tests/tools/test_xr_trace.py

then review the ``golden_xr_trace.json`` diff like any other code.
"""

import json
import os
from pathlib import Path

import pytest

from repro.analysis.tracing import analyze
from repro.tools.xr_trace import load_trace_file, main
from tests.conftest import run_scenario_inline

GOLDEN_PATH = Path(__file__).with_name("golden_xr_trace.json")


@pytest.fixture
def trace_file(tmp_path):
    """A deterministic trace artifact: fixed seed, and trace ids that the
    run numbers itself whatever ran earlier in the process."""
    record = run_scenario_inline(
        "traced-rpc", {"size": 2048, "iterations": 6}, seed=7)
    path = tmp_path / "traces.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for entry in record["traces"]:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return path


def test_json_report_matches_golden(trace_file, capsys):
    assert main([str(trace_file), "--json", "--slowest", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["residual_violations"] == 0
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        pytest.skip("regenerated golden xr_trace report")
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert report == golden, (
        "xr_trace --json output changed — if intentional, regenerate the "
        "golden (see module docstring) and review the diff")


def test_text_report_renders(trace_file, capsys):
    assert main([str(trace_file), "--slowest", "2"]) == 0
    out = capsys.readouterr().out
    assert "xr-trace summary" in out
    assert "critical-path attribution" in out
    assert "neg-network clamped" in out      # the clamp satellite, surfaced
    assert "slowest 2 traces" in out


def test_missing_file_exits_2(tmp_path, capsys):
    assert main([str(tmp_path / "nope.jsonl"), "--json"]) == 2
    assert "xr-trace" in capsys.readouterr().err


def assert_unreadable(path, capsys):
    """Exit 2, nothing on stdout, one ``xr-trace: <path>: ...`` line."""
    assert main([str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"xr-trace: {path}: ")
    assert err.count("\n") == 1


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "traces.jsonl"
    path.write_bytes(b'{"trace_id": 1}\n\xff\xfe\n')
    assert_unreadable(path, capsys)


def test_non_integer_trace_id_exits_2(tmp_path, capsys):
    path = tmp_path / "traces.jsonl"
    path.write_text(json.dumps({"trace_id": "abc", "spans": []}) + "\n",
                    encoding="utf-8")
    assert_unreadable(path, capsys)


def test_loader_tolerates_meta_torn_tail_and_duplicates(tmp_path):
    path = tmp_path / "mixed.jsonl"
    receiver = {"trace_id": 5, "view": "receiver", "complete": True,
                "total_ns": 10, "spans": [["rx_poll", 10]]}
    sender = {"trace_id": 5, "view": "sender", "complete": True,
              "total_ns": 10, "spans": [["rx_poll", 10]]}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"meta": {"suppressed_marks": 3}}) + "\n")
        handle.write(json.dumps(receiver) + "\n")
        handle.write(json.dumps(sender) + "\n")
        handle.write('{"torn tail')
    meta, records = load_trace_file(str(path))
    assert meta["suppressed_marks"] == 3
    assert len(records) == 1 and records[0]["view"] == "sender"
    report = analyze(meta, records)
    assert report["summary"]["suppressed_marks"] == 3
    assert report["summary"]["completed"] == 1
    assert report["critical_path"] == {"rx_poll": 1}
