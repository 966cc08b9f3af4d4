"""Ablations over the design constants DESIGN.md calls out.

Not figures from the paper — these justify the paper's parameter choices
with sweeps on our substrate:

* fragment size around the 64 KB default (Sec. V-C),
* small-message threshold around the 4 KB default (Sec. IV-C),
* seq-ack window depth (Sec. V-B),
* memory-cache MR size: LITE-style 4 KB MRs vs X-RDMA's 4 MB (Sec. IV-E).

The sweep bodies live in :mod:`repro.fleet.scenarios`: these tests read
the seed-0 runs of the ``ablation-grid`` specs (assertions on the paper's
qualitative claims), and ``python -m repro.tools.xr_fleet run --spec
ablation-grid`` runs every seed to regenerate the EXPERIMENTS.md tables.
"""

import pytest

from .conftest import emit


@pytest.mark.figure("ablation-fragment-size", seed=0)
def test_ablation_fragment_size(figure_runs):
    sizes = [4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024]
    rows = {run["params"]["fragment_bytes"]: run["metrics"]["goodput_gbps"]
            for run in figure_runs}
    lines = [f"{'fragment':>9} {'goodput(Gbps)':>14}"]
    for size, goodput in rows.items():
        lines.append(f"{size // 1024:>7}KB {goodput:>14.2f}")
    lines.append("")
    lines.append("paper: moderate fragments win — tiny ones cannot fill "
                 "the pipe under the outstanding-WR budget, huge ones "
                 "burst into congestion.  The optimum scales with the "
                 "deployment (64KB at Alibaba's 6144-connection nodes; "
                 "16KB at this bench's scaled-down incast).")
    emit("ablation_fragment_size", lines)

    # The paper's qualitative claim: an interior optimum exists.
    best = max(rows, key=rows.get)
    assert best not in (sizes[0], sizes[-1]), rows
    # Tiny fragments underfill the pipe ...
    assert rows[4 * 1024] < rows[best] * 0.8
    # ... and jumbo fragments congest back down.
    assert rows[256 * 1024] < rows[best] * 0.8


@pytest.mark.figure("ablation-small-msg-threshold", seed=0)
def test_ablation_small_message_threshold(figure_runs):
    """2 KB payloads: eager vs rendezvous — the 4 KB default keeps them
    on the fast path; memory cost is the tradeoff."""
    rendezvous, eager = (run["metrics"] for run in figure_runs)
    assert eager["eager"] and not rendezvous["eager"]
    eager_us = eager["rtt_us"]
    rendezvous_us = rendezvous["rtt_us"]
    # Receive-ring memory per channel scales with the threshold:
    depth_bytes_4k = eager["recv_ring_bytes_per_channel"]
    depth_bytes_1k = rendezvous["recv_ring_bytes_per_channel"]
    lines = [
        f"{'threshold':<12} {'2KB RPC rtt (us)':>17} {'recv ring B/ch':>15}",
        f"{'4096 (eager)':<12} {eager_us:>17.2f} {depth_bytes_4k:>15}",
        f"{'1024 (rndv)':<12} {rendezvous_us:>17.2f} {depth_bytes_1k:>15}",
        "",
        "paper: small messages trade memory for latency; large ones "
        "tolerate the rendezvous (Sec. IV-C)",
    ]
    emit("ablation_small_msg_threshold", lines)
    assert eager_us < rendezvous_us          # eager is faster ...
    assert depth_bytes_1k < depth_bytes_4k   # ... rendezvous is leaner


@pytest.mark.figure("ablation-window-depth", seed=0)
def test_ablation_window_depth(figure_runs):
    """Deeper windows raise one-way throughput until the pipe saturates."""
    rows = {run["params"]["inflight_depth"]: run["metrics"]["throughput_gbps"]
            for run in figure_runs}
    lines = [f"{'depth':>6} {'throughput(Gbps)':>17}"]
    for depth, gbps in rows.items():
        lines.append(f"{depth:>6} {gbps:>17.2f}")
    emit("ablation_window_depth", lines)
    assert rows[16] > rows[4]               # window was the bottleneck
    assert rows[64] >= rows[16] * 0.9       # then the pipe is


@pytest.mark.figure("ablation-mr-size", seed=0)
def test_ablation_mr_size(figure_runs):
    """LITE-style 4 KB MRs multiply registrations; 4 MB arenas amortize."""
    rows = {name: run["metrics"] for name, run in zip(
        ("4KB MRs (LITE)", "4MB MRs (X-RDMA)"), figure_runs)}
    lines = [f"{'arena':<18} {'MRs':>5} {'alloc 256x4KB (us)':>19}"]
    for name, result in rows.items():
        lines.append(f"{name:<18} {result['mr_count']:>5} "
                     f"{result['alloc_us']:>19.0f}")
    lines.append("")
    lines.append("paper: LITE showed MR-count pressure beyond ~1000 MRs; "
                 "X-RDMA uses 4MB MRs to keep the count low (Sec. IV-E)")
    emit("ablation_mr_size", lines)

    lite = rows["4KB MRs (LITE)"]
    xrdma = rows["4MB MRs (X-RDMA)"]
    assert lite["mr_count"] == 256 and xrdma["mr_count"] == 1
    assert xrdma["alloc_us"] < lite["alloc_us"] / 5
