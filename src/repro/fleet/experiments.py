"""Built-in experiment specs: the paper sweeps as fleet work.

Two scales per sweep:

* **full** — the grids EXPERIMENTS.md tables are regenerated from, three
  seeds per grid point so aggregate tables carry real percentiles.
* **quick** (``--quick``) — single-seed, trimmed grids; what CI's
  ``fleet-smoke`` job runs (with the jobs-invariance byte check) and
  what the committed invariance test uses at its smallest.

``specs_for(...)`` is the one lookup the CLI and tests share.  Spec
construction is deliberately free of environment queries — a spec set is
a pure value, so the expansion (and therefore every run_id) is identical
on any machine.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.fleet.spec import ExperimentSpec

__all__ = ["SPEC_SETS", "specs_for", "spec_names"]

KB = 1024
MB = 1024 * 1024

#: generous per-run wall budget (these are single-digit-second sims; a
#: minute means something is wrong) and an event budget far above any
#: healthy run of these scales.
_TIMEOUT_S = 300.0
_MAX_EVENTS = 20_000_000


def _ablation_specs(quick: bool) -> List[ExperimentSpec]:
    seeds = [0] if quick else [0, 1, 2]
    fragment_sizes = ([4 * KB, 64 * KB, 256 * KB] if quick
                      else [4 * KB, 16 * KB, 64 * KB, 256 * KB])
    depths = [4, 64] if quick else [4, 16, 64]
    thresholds = [1024, 4096]
    mr_sizes = [4 * KB, 4 * MB]
    common = dict(seeds=seeds, timeout_s=_TIMEOUT_S,
                  max_events=_MAX_EVENTS)
    return [
        ExperimentSpec(
            name="ablation-fragment-size", scenario="fragment-incast",
            grid={"fragment_bytes": fragment_sizes},
            description="incast goodput vs fragment size (Sec. V-C)",
            **common),
        ExperimentSpec(
            name="ablation-window-depth", scenario="window-throughput",
            grid={"inflight_depth": depths},
            description="one-way throughput vs seq-ack window (Sec. V-B)",
            **common),
        ExperimentSpec(
            name="ablation-small-msg-threshold", scenario="rpc-latency",
            grid={"small_msg_size": thresholds},
            description="2KB RPC latency: eager vs rendezvous (Sec. IV-C)",
            **common),
        ExperimentSpec(
            name="ablation-mr-size", scenario="mr-registration",
            grid={"mr_bytes": mr_sizes},
            description="MR count / alloc latency vs arena size (Sec. IV-E)",
            **common),
    ]


def _fig10_specs(quick: bool) -> List[ExperimentSpec]:
    seeds = [0] if quick else [0, 1, 2]
    grid = {"workload": ["128KB", "128KB-fc", "64KB"]}
    if quick:
        grid["n_sources"] = [4]
    return [ExperimentSpec(
        name="fig10-flow-control", scenario="fig10-incast", grid=grid,
        seeds=seeds, timeout_s=_TIMEOUT_S, max_events=_MAX_EVENTS,
        description="incast with/without flow control (Fig. 10)")]


def _smoke_specs(quick: bool) -> List[ExperimentSpec]:
    del quick           # already minimal by construction
    return [ExperimentSpec(
        name="smoke", scenario="smoke-incast",
        grid={"fragment_bytes": [16 * KB, 64 * KB]}, seeds=[0, 1, 2],
        timeout_s=60.0, max_events=2_000_000,
        description="tiny incast grid for pool/CI smoke and invariance "
                    "checks")]


def _trace_specs(quick: bool) -> List[ExperimentSpec]:
    seeds = [0] if quick else [0, 1, 2]
    sizes = [2048] if quick else [2048, 256 * KB]
    return [ExperimentSpec(
        name="trace-rpc", scenario="traced-rpc",
        grid={"size": sizes}, seeds=seeds,
        timeout_s=60.0, max_events=2_000_000,
        description="span-traced RPC: XR-Trace artifact + critical-path "
                    "attribution (Sec. VI-A / VII-D)")]


def _ctrlplane_specs(quick: bool) -> List[ExperimentSpec]:
    seeds = [0] if quick else [0, 1, 2]
    channels = [64] if quick else [512, 4096, 16384]
    return [
        ExperimentSpec(
            name="ctrl-plane-setup", scenario="ctrl-plane",
            grid={"channels": channels, "warm": [0, 1]}, seeds=seeds,
            timeout_s=_TIMEOUT_S, max_events=_MAX_EVENTS,
            description="cold vs warm control plane: setup-latency CDFs "
                        "across channel churn (Sec. VII-C / Swift)"),
        ExperimentSpec(
            name="ctrl-plane-nopin", scenario="ctrl-plane",
            grid={"channels": [64] if quick else [512, 4096],
                  "warm": [1], "no_pin": [1]},
            seeds=seeds, timeout_s=_TIMEOUT_S, max_events=_MAX_EVENTS,
            description="on-demand-paging memory cache; its pinned "
                        "twin is ctrl-plane-setup's warm=1 run "
                        "(NP-RDMA ablation axis)"),
    ]


def _cluster_specs(quick: bool) -> List[ExperimentSpec]:
    """The 1000-node emulation path, fleet-sharded one rack per worker.

    Full scale is 1024 emulated hosts (64 racks, 8 pods): every rack is
    a shard, and the jobs-invariant aggregate stitches the per-rack
    metrics into the cluster view EXPERIMENTS.md reports.  Quick scale
    is 256 hosts with two sampled racks — one per pod — sized for CI's
    fleet-smoke byte-identity check, not for throughput numbers.
    """
    if quick:
        n_hosts = 256
        racks = [0, 9]              # one rack in each of the two pods
        connects = [2]
        incast_grid = {"size": [16 * KB], "messages": [2]}
    else:
        n_hosts = 1024
        racks = list(range(n_hosts // 16))
        connects = [8]
        incast_grid = {"size": [64 * KB], "messages": [4]}
    return [
        ExperimentSpec(
            name="cluster-connect-storm", scenario="cluster-connect-storm",
            grid={"n_hosts": [n_hosts], "rack": racks,
                  "connects_per_host": connects},
            seeds=[0], timeout_s=_TIMEOUT_S, max_events=_MAX_EVENTS,
            description="full-mesh connect storm at cluster scale, one "
                        "rack per shard (Fig. 9 shape)"),
        ExperimentSpec(
            name="cluster-incast", scenario="cluster-incast",
            grid={"n_hosts": [n_hosts], "rack": racks, **incast_grid},
            seeds=[0], timeout_s=_TIMEOUT_S, max_events=_MAX_EVENTS,
            description="cluster-wide incast onto a saturated cross-pod "
                        "sink, one rack per shard (Fig. 10 shape)"),
    ]


def _serving_specs(quick: bool) -> List[ExperimentSpec]:
    """XR-Serve open-loop sweeps (multi-tenant serving, windowed SLOs).

    Full scale runs 160 ms with 20 ms windows (6 stable windows after
    warmup/cooldown); quick is 40 ms / 10 ms — enough windows for the
    jobs-invariance byte check without CI-scale event counts.
    """
    seeds = [0] if quick else [0, 1, 2]
    timing = ({"duration_ms": [40], "window_ms": [10]} if quick
              else {"duration_ms": [160], "window_ms": [20]})
    mix_grid = {"policy": ["round-robin", "sharded"], **timing}
    if not quick:
        # Two arrival processes x two offered loads: the policy axis
        # only separates in the burst regime (mmpp at a rate the
        # fabric can absorb); poisson shows the policies are
        # indistinguishable when no channel queue binds, and the high
        # mmpp rate shows sharding *hurting* at overload.
        mix_grid["arrival"] = ["poisson", "mmpp"]
        mix_grid["rate_per_s"] = [4000, 10000]
    return [
        ExperimentSpec(
            name="serving-mix", scenario="serving-mix", grid=mix_grid,
            seeds=seeds, timeout_s=_TIMEOUT_S, max_events=_MAX_EVENTS,
            description="mice+elephant tenant: stable-window p99 under "
                        "round-robin vs per-class-sharded channels"),
        ExperimentSpec(
            name="serving-interference", scenario="serving-interference",
            grid={"aggressor": [0, 1], **timing},
            seeds=seeds, timeout_s=_TIMEOUT_S, max_events=_MAX_EVENTS,
            description="bulk-incast tenant A vs RPC tenant B on a shared "
                        "serving host; XR-Traced per-segment attribution"),
    ]


def _protocol_specs(quick: bool) -> List[ExperimentSpec]:
    """The protocol ablation matrix (ROADMAP item 5): the Taranov axes
    gridded over pingpong, incast, and the serving mice/bulk mix.

    Full scale is the EXPERIMENTS.md "which protocol wins where" table;
    quick is a two-variant slice of each workload, small enough for the
    fleet-smoke jobs-invariance byte check.
    """
    seeds = [0] if quick else [0, 1, 2]
    variants = ["read", "write"]
    common = dict(seeds=seeds, timeout_s=_TIMEOUT_S, max_events=_MAX_EVENTS)
    if quick:
        pingpong_grid = {"rendezvous_variant": variants,
                         "size": [2048, 256 * KB]}
        incast_grid = {"rendezvous_variant": variants,
                       "fragment_bytes": [64 * KB]}
        serving_grid = {"rendezvous_variant": variants,
                        "duration_ms": [40], "window_ms": [10]}
    else:
        pingpong_grid = {"rendezvous_variant": variants,
                         "size": [2048, 64 * KB, MB],
                         "small_msg_size": [1024, 4096]}
        incast_grid = {"rendezvous_variant": variants,
                       "fragment_bytes": [16 * KB, 64 * KB, 256 * KB],
                       "inflight_depth": [8, 32]}
        serving_grid = {"rendezvous_variant": variants,
                        "small_msg_size": [1024, 4096],
                        "duration_ms": [160], "window_ms": [20]}
    return [
        ExperimentSpec(
            name="protocol-pingpong", scenario="protocol-pingpong",
            grid=pingpong_grid,
            description="closed-loop RPC RTT: read vs write rendezvous "
                        "at and above the eager boundary",
            **common),
        ExperimentSpec(
            name="protocol-incast", scenario="protocol-incast",
            grid=incast_grid,
            description="congested incast goodput across rendezvous "
                        "variant x fragment size x window depth",
            **common),
        ExperimentSpec(
            name="protocol-serving", scenario="protocol-serving",
            grid=serving_grid,
            description="serving mice/bulk mix: stable-window p99 per "
                        "rendezvous variant",
            **common),
    ]


def _figure_specs(quick: bool) -> List[ExperimentSpec]:
    """Every figure and table ``benchmarks/`` asserts on.

    A figure has one scale, the one its assertions hold at, so
    ``--quick`` plans nothing.  The ablation grids and Fig. 10 are their
    own full specs (their tests read the seed-0 runs and every run,
    respectively).  Budgets are measured, not defaulted: ``timeout_s``
    is 4x the worst wall seen under tier-1's contention, rounded up to a
    minute, and ``max_events`` 2x the run's events, rounded up to a
    million; 60 s and 2 M are the floor (EXPERIMENTS.md, "Figures are
    fleet units").
    """
    if quick:
        return []

    def figure(name: str, description: str, timeout_s: float = 60.0,
               max_events: int = 2_000_000, **kwargs: Any) -> ExperimentSpec:
        kwargs.setdefault("scenario", name)
        return ExperimentSpec(name=name, timeout_s=timeout_s,
                              max_events=max_events,
                              description=description, **kwargs)

    pingpong = "fig7-pingpong"
    return [
        *_ablation_specs(False),
        *_fig10_specs(False),
        figure("fig3-monitoring",
               "tx rate and QP count under a diurnal load (Fig. 3)"),
        figure("fig7-mixed-messages",
               "ping-pong: eager vs rendezvous vs mixed (Fig. 7 panel 1)",
               scenario=pingpong,
               grid={"size": [2, 16, 64, 128, 512, 2048, 4096, 16384,
                              65536],
                     "system": ["small-mode", "large-mode", "xrdma-BD"]}),
        figure("fig7-middlewares",
               "64 B ping-pong across middlewares (Fig. 7 panel 2)",
               scenario=pingpong,
               grid={"size": [64],
                     "system": ["ibv-pingpong", "xrdma-BD", "xrdma-reqrsp",
                                "ucx-am-rc", "libfabric", "xio"]}),
        figure("fig7-large-sizes",
               "4-32 KB ping-pong across middlewares (Fig. 7 panel 3)",
               scenario=pingpong,
               grid={"size": [4096, 8192, 16384, 32768],
                     "system": ["ibv-pingpong", "xrdma-BD", "ucx-am-rc",
                                "libfabric", "xio"]}),
        figure("fig8-essd-recovery",
               "ESSD IOPS through a restart's connect storm (Fig. 8)",
               timeout_s=600.0, max_events=27_000_000),
        figure("fig9-rnr-counter",
               "RNR NAKs: raw RDMA vs X-RDMA (Fig. 9)",
               grid={"system": ["raw-rdma", "xrdma"]}),
        figure("fig11-online-resources",
               "QPs, IOPS and memory cache across an upgrade (Fig. 11)",
               timeout_s=900.0, max_events=47_000_000),
        figure("fig12-anti-jitter",
               "ESSD / X-DB latency under a 3x burst (Fig. 12)",
               max_events=3_000_000),
        figure("sec2-dual-port",
               "aggregate write bandwidth vs NIC ports (Sec. II-B)",
               grid={"nic_ports": [1, 2]}),
        figure("sec7c-single-connection",
               "one connection, cold vs warm QP cache (Sec. VII-C)",
               grid={"warm": [0, 1]}),
        figure("sec7c-connect-storm",
               "256-connection storm, cold vs warm QP cache (Sec. VII-C)",
               grid={"warm": [0, 1]}),
        figure("sec7f-memory-modes",
               "allocation cost under fragmentation by mode (Sec. VII-F)",
               grid={"mode": ["non-continuous", "continuous", "hugepage"]}),
        figure("sec7f-qp-scaling",
               "victim latency vs live QPs past the NIC cache (Sec. VII-F)",
               grid={"qps": [8, 128, 512]}),
        figure("sec7f-srq",
               "fan-in over per-QP RQs vs an undersized SRQ (Sec. VII-F)",
               grid={"use_srq": [0, 1]}),
        figure("sec9-dct-vs-rc",
               "setup and fan-out latency: DCT vs RC (Sec. IX)",
               grid={"transport": ["rc", "dct"]}),
        figure("tab2-bug-tracking",
               "each bug class caught by its mechanism (Table II)",
               grid={"bug": ["heavy-incast", "broken-network", "jitter",
                             "hard-to-reproduce", "memory-bug"]}),
    ]


SPEC_SETS = {
    "ablation-grid": _ablation_specs,
    "cluster-scale": _cluster_specs,
    "ctrl-plane": _ctrlplane_specs,
    "fig10": _fig10_specs,
    "figures": _figure_specs,
    "protocol-ablation": _protocol_specs,
    "serving": _serving_specs,
    "smoke": _smoke_specs,
    "trace": _trace_specs,
}


def spec_names() -> List[str]:
    return sorted(SPEC_SETS)


def specs_for(names: List[str], quick: bool = False) -> List[ExperimentSpec]:
    """Resolve spec-set names (or ``all``) into concrete specs."""
    if not names or names == ["all"]:
        names = spec_names()
    specs: Dict[str, ExperimentSpec] = {}
    for name in names:
        builder = SPEC_SETS.get(name)
        if builder is None:
            raise KeyError(
                f"unknown spec set {name!r}; choose from "
                f"{', '.join(spec_names())} or 'all'")
        for spec in builder(quick):
            specs[spec.name] = spec
    return [specs[name] for name in sorted(specs)]
