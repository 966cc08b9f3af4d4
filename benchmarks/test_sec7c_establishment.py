"""Sec. VII-C — connection-establishment time and the QP cache.

Paper numbers:

* per-connection establishment falls 3946 µs → 2451 µs (−38%) with the
  QP cache;
* establishing 4096 connections takes ~3 s with X-RDMA versus ~10 s with
  plain rdma_cm (scaled down here to 256 connections).
"""

import pytest

from .conftest import emit


@pytest.mark.figure("sec7c-single-connection")
def test_sec7c_qp_cache_single_connection(figure_runs):
    # One connection per fresh cluster: recycling from closed channels
    # would otherwise warm the "cold" path silently.  One run each: the
    # seed does not reach the connect path, so more seeds would repeat
    # one measurement.
    cold_us, warm_us = (run["metrics"]["connect_ns"] / 1000
                        for run in figure_runs)
    saving = 1 - warm_us / cold_us
    lines = [
        f"{'path':<18} {'per-connection (us)':>20}",
        f"{'cold (no cache)':<18} {cold_us:>20.0f}",
        f"{'warm QP cache':<18} {warm_us:>20.0f}",
        "",
        f"saving: {saving:.0%}  (paper: 3946 -> 2451 us, -38%)",
    ]
    emit("sec7c_establishment_single", lines)

    # Magnitudes: milliseconds, like rdma_cm.
    assert 2500 < cold_us < 6000
    # The cache recovers a large fraction — the paper reports 38%.
    assert 0.25 < saving < 0.60


@pytest.mark.figure("sec7c-connect-storm")
def test_sec7c_connect_storm(figure_runs):
    cold_s, warm_s = (run["metrics"]["storm_s"] for run in figure_runs)
    lines = [
        f"{'path':<18} {'256-connection storm (s)':>26}",
        f"{'plain rdma_cm':<18} {cold_s:>26.2f}",
        f"{'with QP cache':<18} {warm_s:>26.2f}",
        "",
        "paper (4096 conns): ~10 s rdma_cm vs ~3 s with X-RDMA",
    ]
    emit("sec7c_establishment_storm", lines)

    assert warm_s < cold_s
    # The cache saves a substantial fraction of the storm.
    assert warm_s < 0.8 * cold_s