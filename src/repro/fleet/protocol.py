"""Fleet scenarios for the protocol ablation matrix (ROADMAP item 5).

Three workload shapes, each swept over the pluggable protocol axes that
:mod:`repro.xrdma.protocol` exposes through :class:`XrdmaConfig` —
rendezvous variant (receiver Read vs sender Write-with-notify), eager
threshold, fragment size, and window depth:

* ``protocol-pingpong`` — closed-loop RPC latency, the variant's
  round-trip cost at and above the eager boundary;
* ``protocol-incast`` — congested many-to-one goodput, where fragment
  size and window depth interact with the variant's control-message
  economy;
* ``protocol-serving`` — the XR-Serve mice+bulk open-loop mix, where the
  bulk class rides the rendezvous path while mice demand low p99.

The ``protocol-ablation`` spec set grids them; the aggregate is the
"which protocol wins where" table EXPERIMENTS.md reports.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.fleet.runner import RunContext
from repro.fleet.scenarios import (_closed_loop_rpc, _congested_incast,
                                   scenario)
from repro.fleet.serving import mix_tenant
from repro.xrdma import XrdmaConfig

__all__ = ["protocol_config", "protocol_pingpong", "protocol_incast",
           "protocol_serving"]


def protocol_config(params: Dict[str, Any]) -> XrdmaConfig:
    """An :class:`XrdmaConfig` from the protocol axes present in
    ``params`` (absent axes keep the paper's defaults)."""
    kwargs: Dict[str, Any] = {}
    if "rendezvous_variant" in params:
        kwargs["rendezvous_variant"] = str(params["rendezvous_variant"])
    if "small_msg_size" in params:
        kwargs["small_msg_size"] = int(params["small_msg_size"])
    if "fragment_bytes" in params:
        kwargs["fragment_bytes"] = int(params["fragment_bytes"])
    if "inflight_depth" in params:
        kwargs["inflight_depth"] = int(params["inflight_depth"])
    return XrdmaConfig(**kwargs)


@scenario("protocol-pingpong")
def protocol_pingpong(ctx: RunContext) -> Dict[str, Any]:
    """Closed-loop RPC round trips under one protocol design point.

    params: rendezvous_variant, size; optional small_msg_size,
    fragment_bytes, inflight_depth.
    """
    rtt_us, eager, channel, server_channel = _closed_loop_rpc(
        ctx, protocol_config(ctx.params), 8720, int(ctx.params["size"]))
    return {
        "rtt_us": round(rtt_us, 3),
        "eager": eager,
        "rendezvous_reads": server_channel.stats["rendezvous_reads"],
        "rendezvous_writes": channel.stats["rendezvous_writes"],
    }


@scenario("protocol-incast")
def protocol_incast(ctx: RunContext) -> Dict[str, Any]:
    """Congested incast goodput under one protocol design point.

    Four sources, four streams each, eight 256 KB messages per stream.
    params: rendezvous_variant; optional fragment_bytes, inflight_depth,
    small_msg_size.
    """
    return _congested_incast(ctx, protocol_config(ctx.params),
                             size=256 * 1024, messages=8)


@scenario("protocol-serving")
def protocol_serving(ctx: RunContext) -> Dict[str, Any]:
    """XR-Serve mice+bulk open-loop mix under one protocol design point:
    the bulk class exercises the rendezvous variant while the mice set
    the p99 the SLO judges.

    params: rendezvous_variant; optional small_msg_size, fragment_bytes,
    inflight_depth, duration_ms, window_ms.
    """
    return mix_tenant(ctx, protocol_config(ctx.params), "sharded",
                      "poisson", 10_000.0)
