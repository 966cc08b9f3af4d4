"""Sec. II-B — dual-port RNICs (and the multi-path related work).

Every production machine carries a dual-port 25 Gbps CX4-Lx (50 Gbps
aggregate).  The related work the paper cites (Lu et al., NSDI'18) reports
near-linear bandwidth scaling with port count when flows avoid
out-of-order delivery — which our flow-hashed port selection preserves.
"""

import pytest

from .conftest import emit


@pytest.mark.figure("sec2-dual-port")
def test_sec2_dual_port_bandwidth(figure_runs):
    single, dual = (run["metrics"]["aggregate_gbps"] for run in figure_runs)
    lines = [
        f"{'NIC ports':>10} {'aggregate (Gbps)':>17}",
        f"{1:>10} {single:>17.2f}",
        f"{2:>10} {dual:>17.2f}",
        "",
        f"scaling: {dual / single:.2f}x "
        "(paper hardware: dual-port 25 Gbps = 50 Gbps/host; related work "
        "reports near-linear port scaling)",
    ]
    emit("sec2_dual_port", lines)

    assert single < 26.0                  # one link's worth
    assert dual > single * 1.5            # well into the second port
