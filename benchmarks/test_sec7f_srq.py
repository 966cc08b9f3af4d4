"""Sec. VII-F, experience 2 — SRQ saves memory but risks RNR.

"SRQ can effectively reduce memory usage.  However, it violates our
RNR-free design principle ... In X-RDMA, SRQ is supported although
disabled by default."

We run the same fan-in over per-QP receive queues and over one SRQ sized
below the aggregate window, showing the memory saving and the RNR risk.
"""

import pytest

from repro.fleet.figures import SEC7F_MESSAGES as MESSAGES
from repro.fleet.figures import SEC7F_SENDERS as SENDERS

from .conftest import emit


@pytest.mark.figure("sec7f-srq")
def test_sec7f_srq_tradeoff(figure_runs):
    rows = {name: (run["metrics"]["delivered"],
                   run["metrics"]["recv_buffer_bytes"],
                   run["metrics"]["rnr_naks"])
            for name, run in zip(("per-QP RQ", "SRQ"), figure_runs)}
    lines = [f"{'mode':<10} {'delivered':>10} {'recv-buf bytes':>15} "
             f"{'RNR NAKs':>9}"]
    for name, (delivered, buf_bytes, rnr) in rows.items():
        lines.append(f"{name:<10} {delivered:>10} {buf_bytes:>15} {rnr:>9}")
    lines.append("")
    lines.append("paper: SRQ reduces memory but violates RNR-free; "
                 "disabled by default, avoid under ~10K QPs")
    emit("sec7f_srq", lines)

    rq_delivered, rq_bytes, rq_rnr = rows["per-QP RQ"]
    srq_delivered, srq_bytes, srq_rnr = rows["SRQ"]
    # Memory: SRQ posts one shared pool instead of per-channel rings.
    assert srq_bytes < rq_bytes
    # Robustness: per-QP queues are RNR-free; the undersized SRQ is not.
    assert rq_rnr == 0
    assert srq_rnr > 0
    # Traffic still completes eventually in both modes.
    assert rq_delivered == SENDERS * MESSAGES