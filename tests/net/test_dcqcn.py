"""Unit tests for the DCQCN rate controller and CNP governor."""

import pytest

from repro.sim import SimParams, Simulator
from repro.transport import CnpGovernor, DcqcnRateLimiter

LINE = 25e9


def make(params=None):
    sim = Simulator()
    return sim, DcqcnRateLimiter(sim, params or SimParams(), LINE)


def advance(sim, ns):
    sim.spawn(_sleep(sim, ns))
    sim.run()


def _sleep(sim, ns):
    yield sim.timeout(ns)


def test_starts_at_line_rate():
    _, limiter = make()
    assert limiter.rate_bps() == LINE


def test_cnp_cuts_rate():
    _, limiter = make()
    limiter.on_cnp()
    # alpha starts at 1.0, so the first cut halves the rate (alpha/2 ≈ 0.5).
    assert limiter.rate_bps() < 0.6 * LINE


def test_repeated_cnps_cut_further():
    sim, limiter = make()
    limiter.on_cnp()
    r1 = limiter.current_rate
    advance(sim, 10_000)
    limiter.on_cnp()
    assert limiter.current_rate < r1


def test_rate_never_below_floor():
    params = SimParams()
    sim, limiter = make(params)
    for _ in range(200):
        limiter.on_cnp()
    assert limiter.current_rate >= params.dcqcn_min_rate_bps


def test_rate_recovers_after_quiet_period():
    params = SimParams()
    sim, limiter = make(params)
    limiter.on_cnp()
    cut = limiter.current_rate
    advance(sim, 50 * params.dcqcn_rate_increase_ns)
    assert limiter.rate_bps() > cut


def test_recovery_is_capped_at_line_rate():
    params = SimParams()
    sim, limiter = make(params)
    limiter.on_cnp()
    advance(sim, 10_000 * params.dcqcn_rate_increase_ns)
    assert limiter.rate_bps() <= LINE


def test_alpha_decays_without_cnps():
    params = SimParams()
    sim, limiter = make(params)
    limiter.on_cnp()
    alpha_after_cnp = limiter.alpha
    advance(sim, 100 * params.dcqcn_alpha_update_ns)
    limiter.rate_bps()  # triggers lazy advance
    assert limiter.alpha < alpha_after_cnp


def test_reserve_paces_transmissions():
    sim, limiter = make()
    limiter.on_cnp()  # rate ≈ line/2
    rate = limiter.rate_bps()
    t0 = limiter.reserve(4096)
    t1 = limiter.reserve(4096)
    expected_gap = 4096 * 8 / rate * 1e9
    assert t0 == 0
    assert abs((t1 - t0) - expected_gap) <= 1


def test_reserve_at_line_rate_has_no_extra_gap():
    sim, limiter = make()
    t0 = limiter.reserve(4096)
    t1 = limiter.reserve(4096)
    assert (t1 - t0) * 1e-9 * LINE / 8 - 4096 < 1


def test_dcqcn_has_no_off_switch():
    with pytest.raises(TypeError, match="dcqcn_enabled"):
        SimParams(dcqcn_enabled=False)


def test_cnp_governor_rate_limits_per_flow():
    sim = Simulator()
    params = SimParams()
    governor = CnpGovernor(sim, params)
    assert governor.should_send_cnp(1)
    assert not governor.should_send_cnp(1)   # too soon
    assert governor.should_send_cnp(2)       # other flow is independent
    sim.spawn(_sleep(sim, params.dcqcn_cnp_interval_ns + 1))
    sim.run()
    assert governor.should_send_cnp(1)
