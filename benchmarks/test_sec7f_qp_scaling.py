"""Sec. VII-F, experience 1 — the RNIC QP-context cache barely matters.

"According to our evaluation upon ConnectX-4, cache influence on
performance is almost below 10% even when the number of QPs grows up to
60K."  We sweep the live QP count past the NIC's context-cache capacity
(scaled: 64-entry cache, up to 512 QPs) and measure ping-pong latency on
one victim connection while all QPs carry background traffic.
"""

import pytest

from repro.fleet.figures import SEC7F_CACHE_ENTRIES as CACHE_ENTRIES

from .conftest import emit


@pytest.mark.figure("sec7f-qp-scaling")
def test_sec7f_qp_context_cache_influence(figure_runs):
    counts = [8, 128, 512]
    rows = {run["params"]["qps"]: run["metrics"]["latency_us"]
            for run in figure_runs}
    base = rows[counts[0]]
    lines = [f"{'QPs':>6} {'latency(us)':>12} {'vs 8 QPs':>9}"]
    for count in counts:
        lines.append(f"{count:>6} {rows[count]:>12.2f} "
                     f"{rows[count] / base - 1:>8.1%}")
    lines.append("")
    lines.append(f"NIC context cache: {CACHE_ENTRIES} entries "
                 f"(paper: <10% impact up to 60K QPs on CX-4)")
    emit("sec7f_qp_scaling", lines)

    # The paper's conclusion: cache pressure alone costs ~10% or less.
    worst = max(rows.values())
    assert worst / base - 1 < 0.15
    # But it does cost *something* once the cache overflows.
    assert rows[counts[-1]] > base