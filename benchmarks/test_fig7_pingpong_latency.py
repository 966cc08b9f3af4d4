"""Fig. 7 — ping-pong latency vs message size across middlewares.

Three panels, as in the paper:

1. X-RDMA's mixed message model: small-mode vs large-mode vs default mix,
   2 B – 16 KB.  The paper reports large-mode ≈40% slower below 128 B and
   within ~10% (≤1.4 µs) above.
2. Middleware comparison at small sizes: X-RDMA (bare-data and req-rsp),
   xio, ucx-am-rc, ibv_rc_pingpong, libfabric.  Paper: X-RDMA 5.60 µs vs
   UCX 5.87 µs vs libfabric 6.20 µs; ≤10% over ibv; req-rsp adds 2–4%.
3. Large sizes (4–32 KB): same ordering holds.
"""

import pytest

from .conftest import emit


def latencies(runs):
    """One-way latency (µs) by (size, system), in plan order."""
    return {(run["params"]["size"], run["params"]["system"]):
            run["metrics"]["latency_us"] for run in runs}


@pytest.mark.figure("fig7-mixed-messages")
def test_fig7_panel1_mixed_message_model(figure_runs):
    sizes = [2, 16, 64, 128, 512, 2048, 4096, 16384, 65536]
    latency = latencies(figure_runs)
    rows = {size: (latency[size, "small-mode"], latency[size, "large-mode"],
                   latency[size, "xrdma-BD"])
            for size in sizes}
    lines = [f"{'size(B)':>8} {'small-mode':>11} {'large-mode':>11} "
             f"{'mixed':>8} {'large/small':>12}"]
    for size in sizes:
        small, large, mixed = rows[size]
        lines.append(f"{size:>8} {small:>11.2f} {large:>11.2f} "
                     f"{mixed:>8.2f} {large / small:>12.2f}")
    lines.append("")
    lines.append("paper shape: rendezvous penalty is largest for tiny "
                 "payloads and narrows with size (the extra cost is one "
                 "fixed announce+read round; see EXPERIMENTS.md on the "
                 "constant)")
    emit("fig7_panel1_mixed_messages", lines)

    ratio = {size: rows[size][1] / rows[size][0] for size in sizes}
    # Rendezvous costs clearly more for small payloads ...
    assert ratio[64] > 1.40
    # ... and the relative penalty narrows monotonically with size.
    assert ratio[64] > ratio[4096] > ratio[65536]
    # At bulk sizes the modes converge (< 35% apart at 64 KB).
    assert ratio[65536] < 1.35
    # The absolute gap is a roughly fixed extra round, not proportional:
    gap_small = rows[64][1] - rows[64][0]
    gap_large = rows[65536][1] - rows[65536][0]
    assert gap_large < 1.5 * gap_small
    # The default mix follows small-mode below the 4 KB threshold ...
    assert abs(rows[512][2] - rows[512][0]) / rows[512][0] < 0.05
    # ... and switches to the rendezvous path above it.
    assert abs(rows[16384][2] - rows[16384][1]) / rows[16384][1] < 0.10


@pytest.mark.figure("fig7-middlewares")
def test_fig7_panel2_middleware_comparison(figure_runs):
    rows = {system: latency
            for (_size, system), latency in latencies(figure_runs).items()}
    lines = [f"{'system':<14} {'one-way latency (us)':>22}"]
    for name, latency in rows.items():
        lines.append(f"{name:<14} {latency:>22.2f}")
    lines.append("")
    lines.append("paper: xrdma 5.60  ucx 5.87  libfabric 6.20 (64B-class)")
    emit("fig7_panel2_middlewares", lines)

    # Ordering: ibv <= xrdma < ucx < libfabric < xio.
    assert rows["ibv-pingpong"] <= rows["xrdma-BD"]
    assert rows["xrdma-BD"] < rows["ucx-am-rc"]
    assert rows["ucx-am-rc"] < rows["libfabric"]
    assert rows["libfabric"] < rows["xio"]
    # X-RDMA stays within ~10% of the native baseline.
    assert rows["xrdma-BD"] / rows["ibv-pingpong"] < 1.12
    # Tracing (req-rsp) costs 2–4% (~200 ns); allow a slack band.
    overhead = rows["xrdma-reqrsp"] / rows["xrdma-BD"] - 1
    assert 0.0 <= overhead < 0.08


@pytest.mark.figure("fig7-large-sizes")
def test_fig7_panel3_large_sizes(figure_runs):
    sizes = [4096, 8192, 16384, 32768]
    latency = latencies(figure_runs)
    columns = {"ibv": "ibv-pingpong", "xrdma": "xrdma-BD", "ucx": "ucx-am-rc",
               "libfabric": "libfabric", "xio": "xio"}
    rows = {size: {column: latency[size, system]
                   for column, system in columns.items()}
            for size in sizes}
    lines = [f"{'size(B)':>8} {'ibv':>8} {'xrdma':>8} {'ucx':>8} "
             f"{'libfabric':>10} {'xio':>8}"]
    for size in sizes:
        row = rows[size]
        lines.append(f"{size:>8} {row['ibv']:>8.2f} {row['xrdma']:>8.2f} "
                     f"{row['ucx']:>8.2f} {row['libfabric']:>10.2f} "
                     f"{row['xio']:>8.2f}")
    emit("fig7_panel3_large_sizes", lines)

    for size in sizes:
        row = rows[size]
        # Latency grows with size, ordering is preserved, xio's copies
        # hurt ever more as payloads grow.
        assert row["ibv"] <= row["ucx"] < row["libfabric"] < row["xio"]
    assert rows[32768]["xio"] / rows[32768]["ibv"] > \
        rows[4096]["xio"] / rows[4096]["ibv"] * 0.9
