"""Fig. 12 — anti-jitter under pressure (ESSD and X-DB).

The paper's online monitoring shows throughput rising ~300% during a
pressure window with *no significant latency increase*, thanks to the
protocol extensions and resource management.

We drive ESSD (12a) and X-DB (12b) front-ends with a burst profile
(base → 3× base → base) and compare p50/p95 latency inside vs outside the
burst.  There is no contrast run without flow control: the claim checked
is the paper's, that latency holds while throughput triples.  The ESSD
row's latencies are one value in and out of the burst (EXPERIMENTS.md,
Known deviation 7), so its latency assertions cannot fail.
"""

import pytest

from repro.fleet.figures import FIG12_BURST_LEN as BURST_LEN
from repro.fleet.figures import FIG12_BURST_START as BURST_START
from repro.sim import MILLIS

from .conftest import emit


@pytest.mark.figure("fig12-anti-jitter")
def test_fig12_anti_jitter(figure_runs):
    (run,) = figure_runs
    essd_stats, xdb_stats = run["metrics"]["essd"], run["metrics"]["xdb"]
    lines = [f"{'app':<6} {'calm p50':>9} {'burst p50':>10} "
             f"{'calm p95':>9} {'burst p95':>10} {'calm n':>7} {'burst n':>8}"]
    for stats in (essd_stats, xdb_stats):
        lines.append(
            f"{stats['label']:<6} {stats['calm_p50_us']:>9.0f} "
            f"{stats['burst_p50_us']:>10.0f} {stats['calm_p95_us']:>9.0f} "
            f"{stats['burst_p95_us']:>10.0f} {stats['calm_n']:>7} "
            f"{stats['burst_n']:>8}")
    lines.append("")
    lines.append("paper: throughput x3 during the pressure window with no "
                 "significant latency increment")
    emit("fig12_anti_jitter", lines)

    for stats in (essd_stats, xdb_stats):
        # Throughput really did triple inside the window.
        calm_rate = stats["calm_n"] / ((BURST_START - 100 * MILLIS) / 1e9)
        burst_rate = stats["burst_n"] / (BURST_LEN / 1e9)
        assert burst_rate > 2.0 * calm_rate, stats
        # ... and the median latency holds (no significant increment).
        assert stats["burst_p50_us"] < stats["calm_p50_us"] * 1.5, stats
        # Tail latency stays bounded too.
        assert stats["burst_p95_us"] < stats["calm_p95_us"] * 3.0, stats
