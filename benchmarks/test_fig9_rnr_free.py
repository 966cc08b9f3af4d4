"""Fig. 9 — RNR error counter: raw RDMA vs X-RDMA.

The paper's Pangu monitoring shows ~0.9 RNR errors per interval on raw
RDMA and exactly zero with X-RDMA's seq-ack window.  We reproduce both
sides: bursty senders overrunning a slow receiver's receive queue on raw
verbs raise RNR NAKs; the same burst through X-RDMA channels raises none.
"""

import pytest

from repro.fleet.figures import FIG9_BURSTS as BURSTS

from .conftest import emit


@pytest.mark.figure("fig9-rnr-counter")
def test_fig9_rnr_counter(figure_runs):
    raw_rnr, xrdma_rnr = (run["metrics"]["rnr_naks"] for run in figure_runs)
    per_interval = raw_rnr / BURSTS
    lines = [
        f"{'system':<10} {'RNR NAKs':>9} {'per burst interval':>20}",
        f"{'raw RDMA':<10} {raw_rnr:>9} {per_interval:>20.2f}",
        f"{'X-RDMA':<10} {xrdma_rnr:>9} {0.0:>20.2f}",
        "",
        "paper: raw RDMA averages ~0.91 RNR errors per interval; X-RDMA "
        "is RNR-free by construction",
    ]
    emit("fig9_rnr_counter", lines)

    assert raw_rnr > 0, "raw RDMA burst failed to provoke any RNR"
    assert xrdma_rnr == 0, "X-RDMA must be RNR-free"
