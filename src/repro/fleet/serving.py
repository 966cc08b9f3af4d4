"""Fleet scenarios for XR-Serve: open-loop multi-tenant serving sweeps.

Two scenarios back the ``--spec serving`` family:

* ``serving-mix`` — one tenant with a mice+elephant class mix, swept
  over channel-selection policy and arrival process.  The headline
  number is the stable-window p99 under ``sharded`` vs ``round-robin``
  channels: sharding keeps bulk transfers from head-of-line-blocking
  the RPC class at the middleware queue.
* ``serving-interference`` — tenant B (latency-sensitive RPCs, traced
  with XR-Trace) shares a serving host with tenant A (a three-source
  bulk incast), swept over ``aggressor`` 0/1.  The aggregate table
  shows B's p99 degradation, and the traced segments attribute it —
  the inflation lives in the queueing stages, not the wire.

Both push their per-window SLO tables through
:meth:`repro.fleet.runner.RunContext.record_windows`, so sweeps grow a
``windows.jsonl`` artifact that :mod:`repro.tools.xr_slo` renders.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.fleet.runner import RunContext
from repro.fleet.scenarios import scenario
from repro.serving import (BULK_CLASS, RPC_CLASS, ServingHarness, SloTarget,
                           Tenant, TenantSpec, TrafficClass)
from repro.sim import MILLIS
from repro.sim.params import congested_params
from repro.xrdma import XrdmaConfig

__all__ = ["serving_mix", "serving_interference"]

#: stages surfaced as flat metrics in the interference sweep (the rest
#: stay in the trace rollup / traces.jsonl)
_ATTRIBUTED_STAGES = ("window_wait", "flowctl_queue", "nic_tx", "rx_nic",
                      "ack_return")


def _harness(ctx: RunContext, cluster) -> ServingHarness:
    params = ctx.params
    duration_ns = int(float(params.get("duration_ms", 40)) * MILLIS)
    window_ns = int(float(params.get("window_ms", 10)) * MILLIS)
    return ServingHarness(cluster, duration_ns=duration_ns,
                          window_ns=window_ns)


def _tenant_metrics(prefix: str, tenant: Tenant) -> Dict[str, Any]:
    """``tenant``'s summary plus its window digest, keys ``prefix_``-ed."""
    summary = tenant.summary()
    summary["window_digest"] = tenant.recorder.digest()
    return {f"{prefix}_{key}": value for key, value in summary.items()}


def mix_tenant(ctx: RunContext, config: Optional[XrdmaConfig] = None,
               default_policy: str = "round-robin") -> Dict[str, Any]:
    """The one mice+elephant tenant behind ``serving-mix`` and
    ``protocol-serving``: two source hosts, 80 % RPC / 20 % bulk, open
    loop; ``config`` applies to the tenant's and the server's contexts."""
    params = ctx.params
    cluster = ctx.build_cluster(4)
    monitor = ctx.monitor(cluster)
    harness = _harness(ctx, cluster)
    # Mice-dominant mix (the production shape): the channel-policy axis
    # only separates once bursts make per-channel queues bind, which is
    # why the full grid sweeps arrival=mmpp alongside poisson.
    classes = (
        TrafficClass(name="rpc", weight=0.8, size_fn=RPC_CLASS.size_fn),
        TrafficClass(name="bulk", weight=0.2, size_fn=BULK_CLASS.size_fn))
    spec = TenantSpec(
        name="mix", hosts=(0, 1), server_host=3,
        rate_per_s=float(params.get("rate_per_s", 10_000.0)),
        arrival=str(params.get("arrival", "poisson")),
        burst_factor=float(params.get("burst_factor", 6.0)),
        classes=classes,
        n_channels=int(params.get("n_channels", 4)),
        policy=str(params.get("policy", default_policy)),
        slo=SloTarget(latency_us=float(params.get("slo_us", 800.0))))
    tenant = harness.add_tenant(spec, config=config, server_config=config)
    harness.run(monitor=monitor)
    ctx.record_windows(harness.window_rows())
    return _tenant_metrics("mix", tenant)


@scenario("serving-mix")
def serving_mix(ctx: RunContext) -> Dict[str, Any]:
    """One tenant, mice+elephant mix, open loop.

    params: policy (round-robin|sharded), arrival (poisson|mmpp|diurnal);
    optional rate_per_s (per source host), duration_ms, window_ms,
    n_channels, slo_us.
    """
    return mix_tenant(ctx)


@scenario("serving-interference")
def serving_interference(ctx: RunContext) -> Dict[str, Any]:
    """Shared-host interference: bulk incast vs a latency-sensitive tenant.

    Tenant B (one source, all-RPC, XR-Traced) talks to a serving host;
    with ``aggressor=1`` tenant A fans three bulk sources into the same
    host.  params: aggressor (0|1); optional b_rate_per_s, a_rate_per_s,
    duration_ms, window_ms, slo_us.
    """
    params = ctx.params
    aggressor = int(params.get("aggressor", 1))
    cluster = ctx.build_cluster(6, params=congested_params())
    monitor = ctx.monitor(cluster)
    harness = _harness(ctx, cluster)
    # req-rsp mode end to end so XR-Trace contexts ride the headers;
    # only tenant B samples (the victim is what we decompose).
    server_ctx = harness.server_context(
        5, config=XrdmaConfig(req_rsp_mode=True))
    spec_b = TenantSpec(
        name="B", hosts=(4,), server_host=5,
        rate_per_s=float(params.get("b_rate_per_s", 8000.0)),
        classes=(RPC_CLASS,), n_channels=2,
        slo=SloTarget(latency_us=float(params.get("slo_us", 300.0))))
    tenant_b = harness.add_tenant(
        spec_b, config=XrdmaConfig(req_rsp_mode=True, trace_sample_mask=1))
    for b_ctx in tenant_b.contexts:
        ctx.attach_tracer(cluster, b_ctx, tenant="B")
    ctx.attach_tracer(cluster, server_ctx)

    metrics: Dict[str, Any] = {"aggressor": aggressor}
    if aggressor:
        spec_a = TenantSpec(
            name="A", hosts=(0, 1, 2), server_host=5,
            rate_per_s=float(params.get("a_rate_per_s", 1500.0)),
            classes=(BULK_CLASS,), n_channels=2,
            slo=SloTarget(latency_us=50_000.0))
        tenant_a = harness.add_tenant(
            spec_a, config=XrdmaConfig(req_rsp_mode=True))
        harness.run(monitor=monitor)
        metrics.update(_tenant_metrics("a", tenant_a))
    else:
        harness.run(monitor=monitor)
    ctx.record_windows(harness.window_rows())
    metrics.update(_tenant_metrics("b", tenant_b))
    # Per-segment attribution: where tenant B's latency went, straight
    # from the run's trace fold (only the victim samples).
    rollup = ctx.trace_rollup()
    for stage in _ATTRIBUTED_STAGES:
        entry = rollup.get("segments", {}).get(stage)
        metrics[f"seg_{stage}_p99_us"] = (
            round(entry["p99_ns"] / 1000, 2) if entry else 0.0)
    return metrics
