"""Smoke test of the benchmark at its quick scale (part of tier-1).

Asserts the contract between ``BENCHMARK.json`` and what ``bench/run.py``
prints — every declared end-to-end metric, with its unit, for every
workload, and nothing undeclared — plus the correctness gate (which
includes pass-to-pass determinism) and the layer map.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench.layers import LAYERS, layer_of

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}\Z")


def run_bench(*args):
    """Run bench/run.py the way the driver does: by path, from the root,
    with no PYTHONPATH help."""
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=120)


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    ledger = tmp_path_factory.mktemp("bench") / "quick.json"
    done = run_bench("--seed", "7", "--quick", "--json", str(ledger))
    return done, json.loads(ledger.read_text(encoding="utf-8"))


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in SPEC[section]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    setup = [e for e in SPEC["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_quick_run_prints_exactly_the_declared_metrics(quick_run):
    done, ledger = quick_run
    assert done.returncode == 0, done.stdout
    declared = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
    records = [json.loads(line)
               for line in done.stdout.strip().splitlines()[-4:]]
    assert list(ledger["workloads"]) == [w["name"]
                                         for w in SPEC["workloads"]]
    for workload, record in zip(ledger["workloads"], records):
        assert set(record) == {"correct", "attempted", "failed", "metrics"}
        assert record["correct"] is True
        assert record["attempted"] >= 1 and record["failed"] == 0
        assert {name: entry["unit"]
                for name, entry in record["metrics"].items()} == declared
        for name, entry in record["metrics"].items():
            assert entry["value"] > 0, f"{workload} {name}"
            # ... and by name with its unit in the readable part
            assert re.search(rf"^{workload}\s+{re.escape(name)}\s+\S+ "
                             rf"{re.escape(entry['unit'])}$",
                             done.stdout, re.MULTILINE)


def test_quick_run_is_deterministic_per_seed(quick_run):
    """Simulated results repeat for a seed (the in-run gate compares the
    passes of one process; this compares two processes) and move with it."""
    _, ledger = quick_run

    def sim_metrics(seed):
        done = run_bench("--seed", str(seed), "--quick",
                         "--workload", "rpc-pingpong")
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        return {name: entry["value"] for name, entry in metrics.items()
                if name.startswith("sim_")}

    first = {name: entry["value"] for name, entry
             in ledger["workloads"]["rpc-pingpong"]["metrics"].items()
             if name.startswith("sim_")}
    assert sim_metrics(7) == first
    assert sim_metrics(8) != first


def test_every_source_package_maps_to_a_named_layer():
    for entry in sorted((ROOT / "src" / "repro").iterdir()):
        if entry.name == "__pycache__":
            continue
        probe = entry / "x.py" if entry.is_dir() else entry
        assert layer_of(str(probe)) in LAYERS      # KeyError = unmapped
    assert layer_of(str(ROOT / "bench" / "run.py")) == "bench"
    assert layer_of("/usr/lib/python3/heapq.py") == "python"
    with pytest.raises(KeyError):
        layer_of(str(ROOT / "src" / "repro" / "newpkg" / "mod.py"))
    declared = {entry["name"] for entry in SPEC["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.self_s", f"{layer}.calls"} <= declared
