"""Fig. 8 — ESSD aggregate IOPS during a connect storm.

The paper: after a restart, while (re)establishing connections, ESSD
reaches steady state within <2 s and ≈6 KOPS at 128 KB payloads.  We scale
the deployment down (2 block servers × 4 chunk servers, 2 front-ends,
single-digit queue depths) and assert the shape:

* the mesh (and front-end) establishment happens at t=0 (the storm),
* IOPS reaches ≥80% of steady level within the first 2 simulated seconds,
* the last window holds the level (no sag after the ramp).
"""

from statistics import mean

import pytest

from repro.fleet.figures import COMPLETION_BUCKET, FIG8_END as SIM_END
from repro.sim import SECONDS

from .conftest import emit


@pytest.mark.figure("fig8-essd-recovery")
def test_fig8_essd_reaches_steady_state_quickly(figure_runs):
    (run,) = figure_runs
    bucket = COMPLETION_BUCKET
    timeline = [(index * bucket, count * (SECONDS // bucket))
                for index, count in run["metrics"]["completions"]]

    lines = [f"{'t(ms)':>7} {'IOPS':>8}"]
    for when, iops in timeline:
        lines.append(f"{when / 1e6:>7.0f} {iops:>8.0f}")
    lines.append("")
    lines.append("paper: ESSD switches to steady state within <2 s of the "
                 "storm and holds ~6 KOPS (128 KB payloads; scaled here)")
    emit("fig8_essd_recovery", lines)

    assert timeline, "no I/O completed"
    steady = mean(rate for when, rate in timeline
                  if when >= SIM_END // 2)
    # Paper shape: steady within <2 s of the storm.
    ramp_done = [when for when, rate in timeline if rate >= 0.8 * steady]
    assert ramp_done and ramp_done[0] < 2 * SECONDS
    # No post-ramp collapse: the final stretch holds the level.
    late = mean(rate for when, rate in timeline
                if when >= SIM_END - 3 * bucket)
    assert late >= 0.7 * steady
    # Thousands of 128 KB I/O per second (KOPS-scale figure).
    assert steady > 1000
