"""XR-Serve arrival processes: determinism, rates, burst structure."""

import pytest

from repro.serving.arrivals import (MmppArrivals, PoissonArrivals,
                                    make_arrivals)
from repro.sim import MILLIS, RngRegistry, SECONDS


def _stream(seed=0, name="arrivals"):
    return RngRegistry(seed).stream(name)


def test_poisson_schedule_deterministic():
    a = PoissonArrivals(_stream(), rate_per_s=10_000)
    b = PoissonArrivals(_stream(), rate_per_s=10_000)
    assert a.schedule(50 * MILLIS) == b.schedule(50 * MILLIS)
    assert a.arrivals == b.arrivals > 0


def test_poisson_rate_roughly_matches():
    proc = PoissonArrivals(_stream(3), rate_per_s=20_000)
    times = proc.schedule(SECONDS)
    assert len(times) == pytest.approx(20_000, rel=0.1)


def test_poisson_different_seed_different_schedule():
    a = PoissonArrivals(_stream(0), rate_per_s=10_000)
    b = PoissonArrivals(_stream(1), rate_per_s=10_000)
    assert a.schedule(50 * MILLIS) != b.schedule(50 * MILLIS)


def test_mmpp_bursts_raise_rate_and_flip_states():
    base = 5_000
    proc = MmppArrivals(_stream(2), rate_per_s=base,
                        burst_rate_per_s=8 * base,
                        mean_base_ns=20 * MILLIS, mean_burst_ns=10 * MILLIS)
    times = proc.schedule(SECONDS)
    assert proc.state_flips > 2, "never entered a burst"
    # Overall rate sits strictly between base and burst rate.
    assert base * 1.1 < len(times) < 8 * base


def test_mmpp_deterministic():
    def build():
        return MmppArrivals(_stream(9), rate_per_s=5_000,
                            burst_rate_per_s=40_000,
                            mean_base_ns=5 * MILLIS,
                            mean_burst_ns=2 * MILLIS)
    assert build().schedule(100 * MILLIS) == build().schedule(100 * MILLIS)


def test_make_arrivals_kinds_and_validation():
    for kind in ("poisson", "mmpp"):
        proc = make_arrivals(kind, _stream(1), 10_000,
                             duration_ns=100 * MILLIS)
        assert proc.schedule(20 * MILLIS)
    with pytest.raises(ValueError):
        make_arrivals("sawtooth", _stream(1), 10_000)
    with pytest.raises(ValueError):
        make_arrivals("poisson", _stream(1), 0)


def test_gaps_are_positive_integers():
    proc = PoissonArrivals(_stream(8), rate_per_s=500_000)
    gaps = [proc.next_gap_ns(0) for _ in range(500)]
    assert all(isinstance(g, int) and g >= 1 for g in gaps)
