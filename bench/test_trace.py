"""The traced run at the quick scale (part of tier-1): the layer table
accounts for the profiled time, phase spans nest and tile, the trace file
loads, and end-to-end numbers still come from untraced passes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: one workload whose spans come from context managers and one whose
#: steady/drain split is taken inside the simulation; both run XR-Trace
WORKLOADS = ("rpc-pingpong", "serving-mix")


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request):
    workload = request.param
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "7", "--quick",
         "--trace", "both", "--workload", workload],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, done.stdout
    record = json.loads(done.stdout.strip().splitlines()[-1])
    trace = json.loads((ROOT / "bench" / "out" / f"trace-{workload}.json")
                       .read_text(encoding="utf-8"))
    return workload, record, trace


def test_traced_run_reports_every_declared_metric(traced):
    _, record, _ = traced
    declared = {entry["name"]: entry["unit"]
                for entry in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert record["correct"] is True
    assert {name: entry["unit"]
            for name, entry in record["metrics"].items()} == declared


def test_layer_self_times_sum_to_the_profiled_total(traced):
    _, record, trace = traced
    total = sum(layer["self_s"] for layer in trace["layers"].values())
    assert total == pytest.approx(trace["profiled_s"], rel=0.02)
    metrics = record["metrics"]
    assert metrics["trace.profiled_s"]["value"] == trace["profiled_s"]
    for layer, row in trace["layers"].items():
        assert metrics[f"{layer}.self_s"]["value"] == row["self_s"]
    # the engine and the middleware both did work
    assert metrics["sim.self_s"]["value"] > 0
    assert metrics["xrdma.self_s"]["value"] > 0


def test_phase_spans_nest_and_tile_their_parent(traced):
    workload, _, trace = traced
    spans = {span["name"]: span for span in trace["spans"]}
    assert spans["pass"]["parent"] is None
    expected = {"setup": "pass", "build": "setup", "steady": "pass",
                "drain": "pass"}
    if workload == "rpc-pingpong":
        expected["connect"] = "setup"
    assert {name: span["parent"] for name, span in spans.items()
            if name != "pass"} == expected
    slack = 0.005                       # host seconds between two spans
    for parent in ("pass", "setup"):
        children = sorted((span for span in spans.values()
                           if span["parent"] == parent),
                          key=lambda span: span["start_s"])
        assert children[0]["start_s"] >= spans[parent]["start_s"]
        assert children[0]["start_s"] - spans[parent]["start_s"] < slack
        for before, after in zip(children, children[1:]):
            assert 0 <= after["start_s"] - before["end_s"] < slack
        assert 0 <= spans[parent]["end_s"] - children[-1]["end_s"] < slack


def test_end_to_end_numbers_come_from_untraced_passes(traced):
    _, record, _ = traced
    metrics = {name: entry["value"]
               for name, entry in record["metrics"].items()}
    assert metrics["trace.overhead_ratio"] > 1.5     # cProfile is not free
    profiled_pass_s = metrics["trace.overhead_ratio"] \
        * metrics["host.wall_median_s"]
    assert metrics["wall_s"] < profiled_pass_s / 1.5
    assert metrics["sim.schedule_digest_stable"] == 1
    assert metrics["analysis.invariant_violations"] == 0
    assert metrics["xrdma.seg.nic_tx.p99_us"] > 0
