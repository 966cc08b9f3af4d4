"""X-DB: the distributed transaction database front-end (Sec. II-C).

A MySQL-in-Docker front-end executes transactions against Pangu: each
transaction is a couple of small page reads plus a redo-log write, all over
X-RDMA.  Fig. 12b's latency/bandwidth shape comes from this driver.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.apps.pangu import _Frontend
from repro.sim.timeunits import MILLIS
from repro.xrdma.channel import ChannelBroken

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.xrdma.config import XrdmaConfig

#: pages read per transaction
_READS_PER_TXN = 2
_PAGE_BYTES = 16 * 1024
_REDO_BYTES = 32 * 1024


class XdbFrontend(_Frontend):
    """One transaction issuer bound to a block server."""

    def __init__(self, cluster: "Cluster", host_id: int,
                 block_server_host: int,
                 config: Optional["XrdmaConfig"] = None):
        super().__init__(cluster, host_id, block_server_host, config,
                         name=f"xdb{host_id}")

    def run_transactions(self, count: int):
        """Generator: closed-loop transactions; returns completed count."""
        if self.channel is None:
            yield from self.connect()
        for _ in range(count):
            try:
                yield from self._one_txn()
            except ChannelBroken:
                self.failures += 1
                return len(self.completions)
        return len(self.completions)

    def _start_op(self):
        try:
            yield from self._one_txn()
        except ChannelBroken:
            self.failures += 1

    def _one_txn(self):
        """Two page reads (pipelined) then one redo-log write."""
        t0 = self.sim.now
        reads = [
            self.ctx.send_request(self.channel, 128,
                                  payload={"op": "frontend_read",
                                           "size": _PAGE_BYTES})
            for _ in range(_READS_PER_TXN)
        ]
        for request in reads:
            yield request.response
        redo = self.ctx.send_request(self.channel, _REDO_BYTES,
                                     payload={"op": "frontend_write"})
        yield redo.response
        self.completions.append((self.sim.now, self.sim.now - t0))

    def tps_timeline(self, bucket_ns: int = 100 * MILLIS
                     ) -> List[Tuple[int, float]]:
        """(bucket_start_ns, TPS) aggregation of commits (Fig. 12b)."""
        return self._timeline(bucket_ns)
