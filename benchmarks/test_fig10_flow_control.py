"""Fig. 10 — incast with and without X-RDMA flow control.

The paper emulates incast on one node (6144 connections, all outbound
Read/Write) and compares 64 KB, 128 KB and 128 KB-with-flow-control
payloads: fc improves bandwidth ~24%, cuts CNPs to 1–2% of the baseline
and drives TX pause frames to ~zero.

Scaled here to 32 channels (8 hosts × 4) into one sink over shallow
switch buffers.  Assertions are on the paper's qualitative claims:
goodput up, CNPs slashed, pauses eliminated, retransmissions gone.

The workload itself is the fleet's ``fig10-incast`` scenario
(:data:`repro.fleet.scenarios.FIG10_WORKLOADS` defines the presets); the
multi-seed sweep behind the committed table runs via
``python -m repro.tools.xr_fleet run --spec fig10``.
"""

from statistics import median

from repro.fleet.runner import run_scenario_inline
from repro.fleet.scenarios import FIG10_WORKLOADS

from .conftest import emit

#: Goodput here is quantised: every sender's last ack waits on a 10-ms
#: timer tick (EXPERIMENTS.md, "Fig. 10 is quantised"), so one seed lands
#: on one of four values and a legal tie-order change can move it a whole
#: step.  The shape assertions are therefore made on per-metric medians.
SEEDS = (0, 1, 2)
COLUMNS = ("goodput_gbps", "cnps_sent", "pause_frames", "retransmissions")


def test_fig10_flow_control(once):
    def run():
        return {label: [run_scenario_inline(
                            "fig10-incast", {"workload": label},
                            seed=seed)["metrics"] for seed in SEEDS]
                for label in FIG10_WORKLOADS}

    runs = once(run)
    results = {label: {column: median(row[column] for row in rows)
                       for column in COLUMNS}
               for label, rows in runs.items()}
    lines = [f"{'workload':<10} {'seed':>6} {'goodput(Gbps)':>14} {'CNP':>7} "
             f"{'TX-pause':>9} {'retx':>6}"]
    for name, rows in runs.items():
        for seed, result in zip(SEEDS + ("median",),
                                rows + [results[name]]):
            lines.append(
                f"{name:<10} {seed:>6} {result['goodput_gbps']:>14.2f} "
                f"{result['cnps_sent']:>7} "
                f"{result['pause_frames']:>9} "
                f"{result['retransmissions']:>6}")
    lines.append("")
    lines.append("paper: fc improves bandwidth ~24%, CNP falls to 1-2%, "
                 "TX pause to ~0")
    emit("fig10_flow_control", lines)

    base = results["128KB"]
    with_fc = results["128KB-fc"]
    # Bandwidth improves by at least the paper's ~24%.
    assert with_fc["goodput_gbps"] > base["goodput_gbps"] * 1.20
    # CNPs collapse (paper: to 1-2%; we accept anything under 40%).
    assert with_fc["cnps_sent"] < base["cnps_sent"] * 0.4
    # TX pause frames are all but eliminated.
    assert with_fc["pause_frames"] < max(base["pause_frames"] * 0.1, 30)
    # And RC-level retransmissions disappear entirely.
    assert with_fc["retransmissions"] == 0
    # 64 KB without fc sits between: smaller bursts help but the
    # uncapped demand still congests.
    small = results["64KB"]
    assert small["cnps_sent"] > with_fc["cnps_sent"]
