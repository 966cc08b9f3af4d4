"""Fig. 3 — per-machine online monitoring (PolarDB-style).

The paper's dashboard shows send/receive bandwidth alternating between
saturated and unsaturated (diurnal load) and the QP count stepping as
connections come and go.  We regenerate both series with the Monitor over
a diurnal traffic profile.
"""

import pytest

from .conftest import emit


@pytest.mark.figure("fig3-monitoring")
def test_fig3_monitoring_series(figure_runs):
    (run,) = figure_runs
    tx_rates = run["metrics"]["tx_rates"]
    qp_counts = run["metrics"]["qp_counts"]

    lines = [f"{'sample':>7} {'tx GB/s':>9} {'qp':>4}"]
    for index, rate in enumerate(tx_rates):
        qp = qp_counts[min(index, len(qp_counts) - 1)]
        lines.append(f"{index:>7} {rate / 1e9:>9.3f} {qp:>4.0f}")
    lines.append("")
    lines.append("paper: send/receive ratios alternate between saturated "
                 "and unsaturated across the day; QP count steps with "
                 "connection churn")
    emit("fig3_monitoring", lines)

    assert len(tx_rates) >= 10
    peak, trough = max(tx_rates), min(r for r in tx_rates if r >= 0)
    # The diurnal alternation is clearly visible (≥3x swing).
    assert peak > 3 * max(trough, 1.0)
    # The series actually oscillates (at least two rises and two falls).
    direction_changes = sum(
        1 for a, b, c in zip(tx_rates, tx_rates[1:], tx_rates[2:])
        if (b - a) * (c - b) < 0)
    assert direction_changes >= 2
    assert max(qp_counts) >= 1
