"""ESSD: cloud-disk front-ends over Pangu (Sec. II-C).

A front-end stands for the QEMU/KVM half of the I/O path: it issues block
writes (128 KB by default, the Fig. 8 payload) against a block server and
records completion times — the aggregate IOPS timeline of Figs. 8 and 12a.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.apps.pangu import _Frontend
from repro.sim.timeunits import MILLIS
from repro.xrdma.channel import ChannelBroken

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.xrdma.config import XrdmaConfig


class EssdFrontend(_Frontend):
    """One VM-side I/O issuer bound to a block server."""

    def __init__(self, cluster: "Cluster", host_id: int,
                 block_server_host: int, io_bytes: int = 128 * 1024,
                 config: Optional["XrdmaConfig"] = None,
                 queue_depth: int = 8):
        super().__init__(cluster, host_id, block_server_host, config,
                         name=f"essd{host_id}")
        self.io_bytes = io_bytes
        self.queue_depth = queue_depth

    def run_closed_loop(self, total_ios: int):
        """Generator: ``queue_depth`` outstanding I/Os until ``total_ios``."""
        if self.channel is None:
            yield from self.connect()
        issued = 0
        inflight = []
        while issued < total_ios or inflight:
            while issued < total_ios and len(inflight) < self.queue_depth:
                inflight.append((self.sim.now, self._issue()))
                issued += 1
            t0, request = inflight.pop(0)
            try:
                yield request.response
            except ChannelBroken:
                self.failures += 1
                return len(self.completions)
            self.completions.append((self.sim.now, self.sim.now - t0))
        return len(self.completions)

    def _issue(self):
        return self.ctx.send_request(self.channel, self.io_bytes,
                                     payload={"op": "frontend_write"})

    def _start_op(self):
        # The write is posted by the pacing loop itself, not by the
        # collector it spawns.
        return self._collect(self.sim.now, self._issue())

    def _collect(self, t0, request):
        try:
            yield request.response
        except ChannelBroken:
            self.failures += 1
            return
        self.completions.append((self.sim.now, self.sim.now - t0))

    def iops_timeline(self, bucket_ns: int = 100 * MILLIS
                      ) -> List[Tuple[int, float]]:
        """(bucket_start_ns, IOPS) aggregation of completions (Fig. 8)."""
        return self._timeline(bucket_ns)
