"""Egress ports: the queue + wire model.

Every transmitting entity (a switch output, a NIC uplink) owns an
:class:`EgressPort`.  The port serializes segments at the link bandwidth,
honours PFC pause at packet boundaries, and delivers to the peer device
after the propagation delay.

Buffer *admission* is the owner's job (switches check occupancy before
calling :meth:`EgressPort.enqueue`); the port itself only accounts bytes.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Optional

from repro.net.packet import Segment

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.device import Device
    from repro.sim.engine import Simulator
    from repro.sim.params import SimParams


class EgressPort:
    """A FIFO transmit queue feeding one unidirectional wire."""

    __slots__ = ("sim", "params", "name", "bandwidth_bps",
                 "base_bandwidth_bps", "background_bps", "peer",
                 "peer_port", "queue", "queued_bytes", "paused", "busy",
                 "on_dequeue", "tx_segments", "tx_bytes", "_ser_cache")

    def __init__(self, sim: "Simulator", params: "SimParams", name: str,
                 on_dequeue: Optional[Callable[[Segment], None]] = None):
        self.sim = sim
        self.params = params
        self.name = name
        self.bandwidth_bps = params.link_bandwidth_bps
        #: nominal link rate; ``bandwidth_bps`` is the *residual* capacity
        #: once flow-aggregate background load is subtracted
        self.base_bandwidth_bps = self.bandwidth_bps
        self.background_bps = 0.0
        self.peer: Optional["Device"] = None
        self.peer_port: int = 0
        self.queue: Deque[Segment] = deque()
        self.queued_bytes = 0
        #: PFC gate: the downstream device paused this link's one
        #: (lossless) class
        self.paused = False
        self.busy = False
        #: owner hook, fires when a segment leaves the queue (PFC xon checks)
        self.on_dequeue = on_dequeue
        self.tx_segments = 0
        self.tx_bytes = 0
        # Serialization time depends only on segment size; workloads use a
        # handful of sizes, so memoizing skips the float math per segment.
        self._ser_cache: dict = {}

    def connect(self, peer: "Device", peer_port: int) -> None:
        """Point the wire at ``peer``'s ingress ``peer_port``."""
        self.peer = peer
        self.peer_port = peer_port

    # -------------------------------------------------------------- data path
    def enqueue(self, segment: Segment) -> None:
        """Queue a segment for transmission (admission already decided)."""
        if self.peer is None:
            raise RuntimeError(f"egress port {self.name!r} is not connected")
        self.queued_bytes += segment.size
        # An idle port with a backlog has a paused head (it would be
        # draining otherwise), so the segment joins the FIFO behind it.
        if self.busy or self.queue or self.paused:
            self.queue.append(segment)
        else:
            self.busy = True
            self._serialize(segment)

    def set_paused(self, paused: bool) -> None:
        """PFC gate for the link's one lossless class (DESIGN.md,
        "One lossless class").

        Pausing takes effect at the next packet boundary: the segment on
        the wire finishes, the FIFO behind it waits.  Resuming restarts an
        idle port at its head.
        """
        self.paused = paused
        queue = self.queue
        if not paused and not self.busy and queue:
            self.busy = True
            self._serialize(queue.popleft())

    def set_background_load(self, bps: float) -> None:
        """Reserve ``bps`` of this link for flow-aggregate background
        traffic: foreground segments serialize at the residual capacity.

        Background load is fluid — it costs no events; its only footprint
        is this bandwidth reservation plus the byte counters the owning
        :class:`~repro.net.aggregate.AggregateTraffic` settles.  The
        residual never drops below 5% of the nominal rate, mirroring how
        switch schedulers keep a starvation floor for any active queue.
        """
        self.background_bps = bps
        self.bandwidth_bps = max(self.base_bandwidth_bps - bps,
                                 self.base_bandwidth_bps * 0.05)
        self._ser_cache.clear()

    # --------------------------------------------------------------- internal
    def _serialization_ns(self, segment: Segment) -> int:
        ns = self._ser_cache.get(segment.size)
        if ns is None:
            wire_bytes = segment.size + self.params.header_bytes
            ns = max(1, int(round(wire_bytes * 8 / self.bandwidth_bps * 1e9)))
            self._ser_cache[segment.size] = ns
        return ns

    def _serialize(self, segment: Segment) -> None:
        """Put ``segment`` on the wire: one bare entry that fires
        :meth:`_on_serialized` when its last bit has left."""
        ser_ns = self._ser_cache.get(segment.size)
        if ser_ns is None:
            ser_ns = self._serialization_ns(segment)
        self.sim.schedule(ser_ns, self._on_serialized, segment)

    def _on_serialized(self, segment: Segment) -> None:
        # Accounting happens at the dequeue-complete instant: the segment
        # occupies the buffer until it has fully left the wire, so
        # occupancy-based PFC/ECN decisions never see a window where bytes
        # vanished while the port is still busy.
        size = segment.size
        self.queued_bytes -= size
        self.tx_segments += 1
        self.tx_bytes += size
        self.sim.schedule(self.params.link_propagation_ns, self._on_delivered,
                          segment)
        if self.on_dequeue is not None:
            self.on_dequeue(segment)
        # Next head, or idle.  ``busy`` stayed set across ``on_dequeue``,
        # so anything the owner enqueued from the hook is picked up here.
        queue = self.queue
        if queue and not self.paused:
            self._serialize(queue.popleft())
        else:
            self.busy = False

    def _on_delivered(self, segment: Segment) -> None:
        self.peer.receive(segment, self.peer_port)
