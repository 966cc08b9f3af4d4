"""Flow models and trace profiles."""

import pytest

from repro.sim import MILLIS, RngRegistry, SECONDS
from repro.workloads import burst_profile, diurnal_profile, mice_size, rate_at
from repro.workloads.flows import FlowSpec


def test_mice_sizes_are_small():
    rng = RngRegistry(0).stream("mice")
    sizes = [mice_size(rng) for _ in range(300)]
    assert all(64 <= size <= 4096 for size in sizes)


def test_flowspec_fixed_size():
    spec = FlowSpec(src=0, dst=1, count=1, fixed_size=1234)
    rng = RngRegistry(0).stream("s")
    assert spec.draw_size(rng) == 1234


def test_flowspec_size_fn():
    spec = FlowSpec(src=0, dst=1, count=1, size_fn=mice_size)
    rng = RngRegistry(0).stream("s")
    assert 64 <= spec.draw_size(rng) <= 4096


def test_diurnal_profile_oscillates():
    knots = diurnal_profile(duration_ns=4 * SECONDS, period_ns=1 * SECONDS,
                            low=10, high=100)
    values = [value for _, value in knots]
    assert min(values) == pytest.approx(10, abs=1)
    assert max(values) == pytest.approx(100, abs=1)
    # Multiple periods → multiple peaks.
    peaks = sum(1 for a, b, c in zip(values, values[1:], values[2:])
                if b >= a and b >= c and b > 55)
    assert peaks >= 3


def test_diurnal_profile_validation():
    with pytest.raises(ValueError):
        diurnal_profile(0, SECONDS, 1, 2)
    with pytest.raises(ValueError):
        diurnal_profile(SECONDS, SECONDS, 5, 2)


def test_burst_profile_shape():
    knots = burst_profile(duration_ns=SECONDS, base=100, burst=300,
                          burst_start_ns=400 * MILLIS,
                          burst_len_ns=200 * MILLIS)
    assert rate_at(knots, 0) == 100
    assert rate_at(knots, 500 * MILLIS) == 300
    assert rate_at(knots, 700 * MILLIS) == 100


def test_burst_profile_validation():
    with pytest.raises(ValueError):
        burst_profile(SECONDS, 1, 2, burst_start_ns=2 * SECONDS,
                      burst_len_ns=1)


def test_rate_at_steps():
    knots = [(0, 1.0), (100, 2.0), (200, 3.0)]
    assert rate_at(knots, 0) == 1.0
    assert rate_at(knots, 150) == 2.0
    assert rate_at(knots, 999) == 3.0
    with pytest.raises(ValueError):
        rate_at([], 0)


def test_size_fns_deterministic_under_fixed_seed():
    """Same stream name + seed -> the identical size sequence."""
    a = RngRegistry(7).stream("sizes")
    b = RngRegistry(7).stream("sizes")
    assert [mice_size(a) for _ in range(200)] == \
        [mice_size(b) for _ in range(200)]
    # ...and a different seed genuinely changes the draws.
    c = RngRegistry(8).stream("sizes")
    d = RngRegistry(7).stream("sizes")
    assert ([mice_size(c) for _ in range(50)]
            != [mice_size(d) for _ in range(50)])


def test_mice_biased_small():
    """Log-uniform: the median mouse is far below the 4 KB cap."""
    rng = RngRegistry(5).stream("mice-bias")
    sizes = sorted(mice_size(rng) for _ in range(500))
    assert sizes[len(sizes) // 2] < 1024


def _open_loop_send_times(params, seed=13, gap_ns=30_000):
    """Send timestamps of one open-loop flow on a fabric with ``params``."""
    from repro.cluster import build_cluster
    from repro.workloads.flows import open_loop_sender

    cluster = build_cluster(2, seed=seed, params=params)
    ctx = cluster.xrdma_context(0)
    server = cluster.xrdma_context(1)
    server.listen(9100)
    spec = FlowSpec(src=0, dst=1, fixed_size=32 * 1024,
                    mean_gap_ns=gap_ns, count=40)
    rng = cluster.rng.stream("flow")
    sent_log = []

    def run():
        channel = yield from ctx.connect(1, 9100)
        yield from open_loop_sender(ctx, channel, spec, rng, sent_log)

    proc = cluster.sim.spawn(run())
    cluster.sim.run_until_event(proc, limit=5 * SECONDS)
    assert len(sent_log) == 40
    first = sent_log[0][0]
    return [t - first for t, _, _ in sent_log]


def test_open_loop_gaps_independent_of_completion_times():
    """The pinned open-loop contract: with ``mean_gap_ns > 0`` the send
    schedule is a pure function of (seed, spec).  A drastically slower
    fabric changes every completion time but must not move a single
    enqueue."""
    from repro.sim.params import SimParams, congested_params

    fast = _open_loop_send_times(SimParams())
    slow = _open_loop_send_times(congested_params())
    assert fast == slow
