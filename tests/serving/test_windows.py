"""The stable-window measurement engine."""

import pytest

from repro.serving.windows import SloTarget, WindowedRecorder

MS = 1_000_000


def _loaded_recorder():
    """4 planned windows, steady 3-per-window traffic, 10us latencies."""
    rec = WindowedRecorder(window_ns=10 * MS)
    for w in range(4):
        for i in range(3):
            at = w * 10 * MS + i * MS
            rec.on_offered(at)
            rec.on_completed(at + 10_000, 10_000)
    rec.close(40 * MS)
    return rec


def test_window_indexing_and_counts():
    rec = _loaded_recorder()
    assert rec.n_windows == 4
    assert rec.stable_indices() == [1, 2]
    assert rec.total_offered == rec.total_completed == 12
    rows = rec.rows()
    assert [row["window"] for row in rows] == [0, 1, 2, 3]
    assert [row["stable"] for row in rows] == [False, True, True, False]
    assert all(row["offered"] == row["completed"] == 3 for row in rows)


def test_warmup_cooldown_excluded_from_summary():
    rec = _loaded_recorder()
    summary = rec.summary(SloTarget(latency_us=100.0))
    assert summary["windows_stable"] == 2
    assert summary["offered"] == 6          # not 12: edges excluded
    assert summary["slo_ok"] == 1
    assert summary["slo_attainment"] == 1.0


def test_summary_carries_no_window_digest():
    # The digest is a fingerprint for comparing runs (fleet records ask
    # for it explicitly); a summary computes none, so it never imports
    # hashlib.
    rec = _loaded_recorder()
    summary = rec.summary(SloTarget(latency_us=100.0))
    assert "window_digest" not in summary
    assert len(rec.digest()) == 64


def test_slo_failure_in_one_stable_window():
    rec = WindowedRecorder(window_ns=10 * MS)
    for w in range(4):
        latency = 5_000_000 if w == 2 else 10_000   # window 2: 5ms spike
        rec.on_offered(w * 10 * MS)
        rec.on_completed(w * 10 * MS + latency, latency)
    rec.close(40 * MS)
    summary = rec.summary(SloTarget(latency_us=100.0))
    assert summary["slo_ok"] == 0
    assert summary["slo_attainment"] == 0.5
    rows = rec.rows(SloTarget(latency_us=100.0))
    assert rows[2]["slo_ok"] is False
    assert rows[1]["slo_ok"] is True


def test_offered_vs_achieved_gap_visible_per_window():
    rec = WindowedRecorder(window_ns=10 * MS)
    for i in range(10):
        rec.on_offered((10 + i) * MS)       # all offered in window 1
    rec.on_completed(15 * MS, 100_000)      # only one completes there
    rec.close(30 * MS)
    rows = rec.rows()
    assert rows[1]["stable"] is True
    assert rows[1]["offered"] == 10
    assert rows[1]["completed"] == 1
    assert rows[1]["offered_rps"] > rows[1]["achieved_rps"]


def test_throughput_floor_fails_a_slow_window():
    rec = WindowedRecorder(window_ns=10 * MS)
    rec.on_offered(11 * MS)                 # window 1, the one stable one
    rec.on_completed(12 * MS, 10_000)
    rec.close(30 * MS)
    fast_enough = rec.summary(SloTarget(latency_us=100.0))
    assert fast_enough["slo_ok"] == 1
    floor = rec.summary(SloTarget(latency_us=100.0,
                                  min_achieved_rps=1_000.0))
    assert floor["slo_ok"] == 0             # 100 rps < 1000 rps floor


def test_idle_stable_windows_are_vacuously_ok():
    rec = WindowedRecorder(window_ns=10 * MS)
    rec.on_offered(11 * MS)
    rec.on_completed(12 * MS, 10_000)
    rec.close(50 * MS)                      # stable windows 2, 3 idle
    summary = rec.summary(SloTarget(latency_us=100.0))
    assert summary["slo_ok"] == 1
    assert summary["slo_attainment"] == 1.0
    rows = rec.rows(SloTarget(latency_us=100.0))
    assert all(row["slo_ok"] for row in rows)


def test_stragglers_extend_rows_but_not_stable_set():
    rec = _loaded_recorder()
    rec.on_completed(55 * MS, 1_000)        # lands past the horizon
    rows = rec.rows()
    assert rows[-1]["window"] == 5
    assert rows[-1]["stable"] is False
    assert rec.stable_indices() == [1, 2]


def test_digest_covers_latency_values():
    a = _loaded_recorder()
    b = _loaded_recorder()
    assert a.digest() == b.digest()
    b.on_completed(15 * MS, 10_001)         # one extra latency value
    assert a.digest() != b.digest()


def test_validation():
    with pytest.raises(ValueError):
        WindowedRecorder(window_ns=0)
    rec = WindowedRecorder(window_ns=10 * MS)
    with pytest.raises(ValueError):
        rec.on_completed(0, -5)
    with pytest.raises(ValueError):
        rec.close(0)
