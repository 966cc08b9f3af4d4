"""Pangu: the distributed file system under ESSD and X-DB (Sec. II-C).

Two roles per the paper:

* a **block server** receives data from the front-end and distributes
  2–3 copies to chunk servers on different machines via full-mesh
  X-RDMA communication;
* a **chunk server** persists chunks and acknowledges.

The full-mesh establishment (every block server to every chunk server) is
the memory-footprint and connect-storm scenario of Sec. III; benches for
Fig. 8/9/11 drive this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.sim.timeunits import MICROS, MILLIS, SECONDS
from repro.workloads.traces import Knot, rate_at
from repro.xrdma.channel import ChannelBroken, XrdmaChannel
from repro.xrdma.context import XrdmaContext
from repro.xrdma.message import XrdmaMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.xrdma.config import XrdmaConfig

CHUNK_PORT = 9200
BLOCK_PORT = 9300

#: chunk-server side storage-medium latency per write (SSD-class)
_STORE_NS = 20 * MICROS


class ChunkServer:
    """Stores chunks; one X-RDMA context, request handler on every channel."""

    def __init__(self, cluster: "Cluster", host_id: int,
                 config: Optional["XrdmaConfig"] = None):
        self.cluster = cluster
        self.host_id = host_id
        self.ctx = cluster.xrdma_context(host_id, config=config,
                                         name=f"chunk{host_id}")
        self.chunks_written = 0
        self.bytes_written = 0
        self.ctx.listen(CHUNK_PORT)
        cluster.sim.spawn(self._serve(), name=f"chunk{host_id}:serve")

    def _serve(self):
        while True:
            msg = yield self.ctx.incoming.get()
            if not msg.is_request:
                continue
            op = (msg.payload or {}).get("op")
            if op == "write_chunk":
                yield self.ctx.sim.timeout(_STORE_NS)
                self.chunks_written += 1
                self.bytes_written += msg.payload_size
                self.ctx.send_response(msg, 64, payload={"ok": True})
            elif op == "read_chunk":
                size = msg.payload.get("size", 4096)
                self.ctx.send_response(msg, size, payload={"ok": True})
            else:
                self.ctx.send_response(msg, 64, payload={"ok": False})


class BlockServer:
    """Receives front-end I/O; replicates to chunk servers."""

    def __init__(self, cluster: "Cluster", host_id: int,
                 replicas: int = 3, config: Optional["XrdmaConfig"] = None):
        self.cluster = cluster
        self.host_id = host_id
        self.replicas = replicas
        self.ctx = cluster.xrdma_context(host_id, config=config,
                                         name=f"block{host_id}")
        self.channels: Dict[int, XrdmaChannel] = {}     # chunk host -> channel
        self.writes_completed = 0
        self._placement = itertools.count()
        self.ctx.listen(BLOCK_PORT)
        cluster.sim.spawn(self._serve(), name=f"block{host_id}:serve")

    # ------------------------------------------------------------- topology
    def connect_mesh(self, chunk_hosts: List[int]):
        """Generator: establish channels to every chunk server (the connect
        storm of Fig. 8)."""
        for chunk_host in chunk_hosts:
            channel = yield from self.ctx.connect(chunk_host, CHUNK_PORT)
            # keepAlive marks dead peers; drop them from placement so new
            # writes route around the failure instead of erroring forever.
            channel.on_broken = (
                lambda ch, host=chunk_host: self.channels.pop(host, None))
            self.channels[chunk_host] = channel
        return len(self.channels)

    def _pick_replicas(self) -> List[XrdmaChannel]:
        hosts = sorted(self.channels)
        if len(hosts) < self.replicas:
            raise RuntimeError(
                f"block{self.host_id}: only {len(hosts)} chunk servers "
                f"connected, need {self.replicas}")
        start = next(self._placement)
        picked = [hosts[(start + i) % len(hosts)]
                  for i in range(self.replicas)]
        return [self.channels[h] for h in picked]

    # ------------------------------------------------------------ data path
    def write_block(self, size: int):
        """Generator: replicate one block; returns the commit latency."""
        t0 = self.ctx.sim.now
        requests = []
        for channel in self._pick_replicas():
            requests.append(self.ctx.send_request(
                channel, size, payload={"op": "write_chunk"}))
        for request in requests:
            yield request.response
        latency = self.ctx.sim.now - t0
        self.writes_completed += 1
        return latency

    def _serve(self):
        """Front-end facing loop: each request is one block write."""
        while True:
            msg = yield self.ctx.incoming.get()
            if not msg.is_request:
                continue
            self.ctx.sim.spawn(self._handle_frontend(msg))

    def _handle_frontend(self, msg: XrdmaMessage):
        op = (msg.payload or {}).get("op", "frontend_write")
        try:
            if op == "frontend_read":
                size = msg.payload.get("size", 4096)
                yield from self.read_block(size)
                self.ctx.send_response(msg, size, payload={"ok": True})
            else:
                yield from self.write_block(msg.payload_size)
                self.ctx.send_response(msg, 64, payload={"ok": True})
        except (ChannelBroken, RuntimeError):
            self.ctx.send_response(msg, 64, payload={"ok": False})

    def read_block(self, size: int):
        """Generator: fetch one block from a single chunk replica."""
        channel = self._pick_replicas()[0]
        request = self.ctx.send_request(channel, 128,
                                        payload={"op": "read_chunk",
                                                 "size": size})
        yield request.response
        return size


@dataclass
class PanguDeployment:
    """A block-server/chunk-server deployment on a cluster."""

    cluster: "Cluster"
    block_servers: List[BlockServer] = field(default_factory=list)
    chunk_servers: List[ChunkServer] = field(default_factory=list)

    @classmethod
    def build(cls, cluster: "Cluster", block_hosts: List[int],
              chunk_hosts: List[int], replicas: int = 3,
              config: Optional["XrdmaConfig"] = None) -> "PanguDeployment":
        deployment = cls(cluster=cluster)
        for host in chunk_hosts:
            deployment.chunk_servers.append(
                ChunkServer(cluster, host, config=config))
        for host in block_hosts:
            deployment.block_servers.append(
                BlockServer(cluster, host, replicas=replicas, config=config))
        return deployment

    def establish_mesh(self) -> int:
        """Run the full-mesh connect storm (bounded at 300 s of simulated
        time); returns elapsed ns."""
        sim = self.cluster.sim
        chunk_hosts = [cs.host_id for cs in self.chunk_servers]
        t0 = sim.now
        procs = [sim.spawn(bs.connect_mesh(chunk_hosts))
                 for bs in self.block_servers]
        sim.run_until_event(sim.all_of(procs), limit=sim.now + 300 * SECONDS)
        return sim.now - t0

    @property
    def total_connections(self) -> int:
        return sum(len(bs.channels) for bs in self.block_servers)

    def qp_count(self) -> int:
        """Live QPs across the deployment (Fig. 11a)."""
        contexts = [bs.ctx for bs in self.block_servers] \
            + [cs.ctx for cs in self.chunk_servers]
        return sum(len(ctx.channels) + len(ctx.qpcache) for ctx in contexts)


class _Frontend:
    """The client half of a block server, shared by the ESSD and X-DB
    front-ends: one context attached to one block server, open-loop
    pacing from a rate profile, and the completion log.  A subclass
    supplies ``_start_op()`` — one operation as a generator that appends
    to ``completions`` or counts a failure."""

    def __init__(self, cluster: "Cluster", host_id: int,
                 block_server_host: int, config: Optional["XrdmaConfig"],
                 name: str):
        self.cluster = cluster
        self.sim = cluster.sim
        self.host_id = host_id
        self.block_server_host = block_server_host
        self.ctx = cluster.xrdma_context(host_id, config=config, name=name)
        self.channel = None
        #: (completion_time_ns, latency_ns) per operation
        self.completions: List[Tuple[int, int]] = []
        self.failures = 0

    def connect(self):
        """Generator: attach to the block server."""
        self.channel = yield from self.ctx.connect(self.block_server_host,
                                                   BLOCK_PORT)
        return self.channel

    def run_profile(self, profile: List[Knot], duration_ns: int):
        """Generator: open-loop operations at the profile's (time-varying)
        rate per second."""
        if self.channel is None:
            yield from self.connect()
        started = self.sim.now
        while self.sim.now - started < duration_ns:
            rate = rate_at(profile, self.sim.now - started)
            if rate <= 0:
                yield self.sim.timeout(1 * MILLIS)
                continue
            self.sim.spawn(self._start_op())
            yield self.sim.timeout(max(int(1 * SECONDS / rate), 1))
        return len(self.completions)

    def _timeline(self, bucket_ns: int) -> List[Tuple[int, float]]:
        """(bucket_start_ns, completions per second) per bucket."""
        buckets: Dict[int, int] = {}
        for when, _latency in self.completions:
            buckets[when // bucket_ns] = buckets.get(when // bucket_ns, 0) + 1
        return [(index * bucket_ns, count * (1 * SECONDS) / bucket_ns)
                for index, count in sorted(buckets.items())]

    def latencies_in(self, start_ns: int, end_ns: int) -> List[int]:
        return [latency for when, latency in self.completions
                if start_ns <= when < end_ns]
