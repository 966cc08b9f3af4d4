"""Engine performance microbenches (the xr-bench suite under pytest).

Unlike the figure benchmarks (which regenerate paper results), this suite
tracks the *simulator's own* speed: fired events per wall-clock second on
the four hot-path microbenches.  The committed ``BENCH_PR3.json``
trajectory file at the repo root holds the measured before/after numbers
for the PR-3 engine overhaul; CI's perf-smoke job compares fresh quick
runs against the current baseline, ``BENCH_PR14.json`` (events/sec does
not compare across a PR that removes events, so PR 14 re-measured it).

Two properties are asserted here, neither of which is wall-clock:

* **determinism** — event counts and bench-specific outputs are exact for
  fixed seeds, so any drift means the schedule changed (the digest suite
  in ``tests/scenarios`` then tells you whether order changed too);
* **sanity** — each bench actually exercised its hot path (nonzero
  events, segments, allocations).

Wall-clock regression gating lives in ``xr_bench --baseline`` (CI), not
in pytest asserts: a loaded machine must not fail the build by itself.
"""

import json
import pathlib

import pytest

from repro.tools import xr_bench

from ..conftest import emit

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
TRAJECTORY = REPO_ROOT / "BENCH_PR3.json"
BASELINE = REPO_ROOT / "BENCH_PR14.json"


@pytest.fixture(scope="module")
def quick_results():
    """One quick-scale pass over the whole suite, shared by the asserts."""
    return xr_bench.run_suite(quick=True)


def test_suite_covers_all_declared_benches(quick_results):
    assert set(quick_results) == set(xr_bench.BENCHES)


def test_event_counts_are_deterministic(quick_results):
    """Same seeds → same schedule → same event counts, run to run."""
    again = xr_bench.run_suite(quick=True)
    for name, result in quick_results.items():
        assert again[name].events == result.events, (
            f"{name}: event count drifted across identical runs "
            f"({again[name].events} vs {result.events})")


def test_benches_exercise_their_hot_paths(quick_results):
    assert quick_results["timer-churn"].events > 1_000
    incast = quick_results["incast-segment-storm"]
    assert incast.extra["bytes_moved"] > 0
    assert incast.extra["messages"] > 0
    churn = quick_results["memcache-churn"]
    assert churn.extra["allocs"] > 100
    pingpong = quick_results["pingpong"]
    assert pingpong.extra["mean_latency_us"] > 0


def test_trajectory_file_is_committed_and_well_formed():
    """BENCH_PR3.json must exist with before/after sections per mode."""
    payload = json.loads(TRAJECTORY.read_text())
    for mode in ("quick", "full"):
        assert mode in payload, f"missing {mode!r} section"
        for side in ("before", "after"):
            section = payload[mode].get(side)
            assert isinstance(section, dict), f"missing {mode}/{side}"
            for name in xr_bench.BENCHES:
                assert name in section, f"{mode}/{side} missing {name!r}"
                assert section[name]["events_per_sec"] > 0


def test_trajectory_records_the_headline_speedups():
    """The PR's acceptance criterion, pinned against the committed file:
    >=1.5x events/sec on timer-churn and incast-segment-storm (full
    scale, interleaved A/B best-of measurements)."""
    payload = json.loads(TRAJECTORY.read_text())
    full = payload["full"]
    for name in ("timer-churn", "incast-segment-storm"):
        before = full["before"][name]["events_per_sec"]
        after = full["after"][name]["events_per_sec"]
        assert after / before >= 1.5, (
            f"{name}: committed trajectory shows {after / before:.2f}x")


def test_ci_baseline_matches_todays_event_counts(quick_results):
    """The file perf-smoke gates on must load in both modes and describe
    this tree: its quick event counts are the ones a quick run fires."""
    for mode in ("quick", "full"):
        xr_bench.load_baseline(str(BASELINE), mode)
    quick = json.loads(BASELINE.read_text())["quick"]
    for name, result in quick_results.items():
        assert quick[name]["events"] == result.events, name


def test_emit_quick_table(quick_results):
    emit("perf_engine_quick",
         [result.summary() for result in quick_results.values()])
