"""Fig. 11 — online QP count, IOPS and memory-cache usage during an
upgrade.

The paper's production monitoring shows a rolling upgrade raising the QP
count rapidly with no performance harm (11a/11b), and the memory cache's
occupied capacity tracking the in-use curve smoothly as bandwidth changes
(11c).

We run a Pangu deployment, roll in a second wave of block servers
mid-experiment (the upgrade), and sample everything with the Monitor.
"""

import pytest

from repro.fleet.figures import COMPLETION_BUCKET
from repro.sim import MILLIS

from .conftest import emit


@pytest.mark.figure("fig11-online-resources")
def test_fig11_online_resources(figure_runs):
    (run,) = figure_runs
    metrics = run["metrics"]
    qp_before, qp_after = metrics["qp_before"], metrics["qp_after"]

    # -- 11a: QP number rises with the upgrade.
    assert qp_after > qp_before

    # -- 11b: IOPS did not collapse across the upgrade window.
    def iops_in(completions, start, end):
        count = sum(n for index, n in completions
                    if start <= index * COMPLETION_BUCKET < end)
        return count / ((end - start) / 1e9)

    original = metrics["completions"]    # the first two front-ends
    before_iops = iops_in(original, 300 * MILLIS, 600 * MILLIS)
    after_iops = iops_in(original, 1000 * MILLIS, 1400 * MILLIS)
    assert after_iops > before_iops * 0.6   # no jitter collapse

    # -- 11c: memory cache tracks usage smoothly; occupied >= in-use.
    occupied = metrics["mem_occupied"]     # block server 0
    in_use = metrics["mem_in_use"]
    assert occupied and in_use
    assert all(o >= u for o, u in zip(occupied, in_use))
    assert max(in_use) > 0

    lines = [f"{'metric':<22} {'before':>12} {'after':>12}",
             f"{'deployment QPs':<22} {qp_before:>12} {qp_after:>12}",
             f"{'orig frontends IOPS':<22} {before_iops:>12.0f} "
             f"{after_iops:>12.0f}",
             f"{'mem occupied (max B)':<22} {max(occupied):>12.0f}",
             f"{'mem in-use (max B)':<22} {max(in_use):>12.0f}"]
    lines.append("")
    lines.append("paper: upgrade raises QP count without harming IOPS; "
                 "memory cache operates smoothly with bandwidth")
    emit("fig11_online_resources", lines)
