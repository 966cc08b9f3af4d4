"""XR-Stat: per-connection statistics, netstat-style (Sec. VI-B).

Provides the raw data for troubleshooting and performance analysis: one row
per channel plus context-level resource numbers and the fabric-wide crucial
indexes (PFC status, queue-drop counters, buffer utilization).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.xrdma.context import XrdmaContext


class XrStat:
    """Snapshot-based reporting over any number of contexts."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.contexts: List["XrdmaContext"] = []

    def attach(self, ctx: "XrdmaContext") -> None:
        self.contexts.append(ctx)

    # ------------------------------------------------------------------ rows
    def channel_rows(self, ctx: "XrdmaContext") -> List[Dict[str, Any]]:
        """One row per channel: its identity and live window/queue state,
        then every ``channel.stats`` counter under its own name."""
        return [{
            "channel": channel.channel_id,
            "local": ctx.nic.host_id,
            "remote": channel.remote_host,
            "state": channel.state.name,
            "in_flight": channel.window.in_flight,
            "window": channel.window.depth,
            "queued": len(channel.pending_send),
            "wr_queued": channel.flow.queued,
            **channel.stats,
        } for channel in ctx.channels.values()]

    def context_row(self, ctx: "XrdmaContext") -> Dict[str, Any]:
        return ctx.stat_snapshot()

    def crucial_indexes(self) -> Dict[str, Any]:
        """Fabric health: the numbers the paper says must be watched —
        every ``NetStats`` counter under its own name, plus the bytes
        queued in each ToR's ports."""
        buffer_utilization = {}
        for tor in self.cluster.topology.tors:
            total = sum(port.queued_bytes for port in tor.ports)
            buffer_utilization[tor.name] = total
        return {**self.cluster.stats.snapshot(),
                "buffer_utilization_bytes": buffer_utilization}

    # ---------------------------------------------------------------- report
    def format(self) -> str:
        """Human-readable report across all attached contexts."""
        lines = []
        header = (f"{'CH':>4} {'L':>3} {'R':>3} {'STATE':<7} "
                  f"{'INFL':>5} {'TXM':>7} {'RXM':>7} "
                  f"{'TXB':>11} {'RXB':>11} {'QUE':>4}")
        for ctx in self.contexts:
            lines.append(f"== {ctx.name} (host {ctx.nic.host_id}) ==")
            lines.append(header)
            for row in self.channel_rows(ctx):
                lines.append(
                    f"{row['channel']:>4} {row['local']:>3} {row['remote']:>3} "
                    f"{row['state']:<7} {row['in_flight']:>5} "
                    f"{row['tx_msgs']:>7} {row['rx_msgs']:>7} "
                    f"{row['tx_bytes']:>11} {row['rx_bytes']:>11} "
                    f"{row['queued']:>4}")
            snapshot = self.context_row(ctx)
            lines.append(
                f"  mem occupied={snapshot['mem_occupied']} "
                f"in_use={snapshot['mem_in_use']} mrs={snapshot['mr_count']} "
                f"qp_cache={snapshot['qp_cache_size']}")
        crucial = self.crucial_indexes()
        lines.append(
            f"net: pause={crucial['pause_frames']} "
            f"drops={crucial['drops']} cnp={crucial['cnps_sent']} "
            f"rnr={crucial['rnr_naks']} retx={crucial['retransmissions']}")
        return "\n".join(lines)
