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
from repro.sim.events import Event, Timeout, _PENDING

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.device import Device
    from repro.sim.engine import Simulator
    from repro.sim.params import SimParams


class EgressPort:
    """A FIFO transmit queue feeding one unidirectional wire."""

    __slots__ = ("sim", "params", "name", "bandwidth_bps",
                 "base_bandwidth_bps", "background_bps", "peer",
                 "peer_port", "queue", "queued_bytes", "pause_mask", "busy",
                 "on_dequeue", "tx_segments", "tx_bytes", "_tx_started",
                 "_wake", "_park", "_ser_cache")

    #: pause mask gating every priority class (legacy whole-port gate)
    PAUSE_ALL = -1

    def __init__(self, sim: "Simulator", params: "SimParams", name: str,
                 bandwidth_bps: Optional[float] = None,
                 on_dequeue: Optional[Callable[[Segment], None]] = None):
        self.sim = sim
        self.params = params
        self.name = name
        self.bandwidth_bps = bandwidth_bps or params.link_bandwidth_bps
        #: nominal link rate; ``bandwidth_bps`` is the *residual* capacity
        #: once flow-aggregate background load is subtracted
        self.base_bandwidth_bps = self.bandwidth_bps
        self.background_bps = 0.0
        self.peer: Optional["Device"] = None
        self.peer_port: int = 0
        self.queue: Deque[Segment] = deque()
        self.queued_bytes = 0
        #: bit ``p`` set == PFC priority class ``p`` is paused
        self.pause_mask = 0
        self.busy = False
        #: owner hook, fires when a segment leaves the queue (PFC xon checks)
        self.on_dequeue = on_dequeue
        self.tx_segments = 0
        self.tx_bytes = 0
        # One persistent tx process per port (spawned lazily on first
        # traffic) parked on a wake event while idle — spawning a fresh
        # generator per burst costs a Process + bootstrap Event each time.
        self._tx_started = False
        self._wake: Optional[Event] = None
        self._park: Optional[Event] = None      # recycled idle-wake event
        # Serialization time depends only on segment size; workloads use a
        # handful of sizes, so memoizing skips the float math per segment.
        self._ser_cache: dict = {}

    def connect(self, peer: "Device", peer_port: int) -> None:
        """Point the wire at ``peer``'s ingress ``peer_port``."""
        self.peer = peer
        self.peer_port = peer_port

    @property
    def paused(self) -> bool:
        """True when any priority class is gated (legacy inspection name)."""
        return self.pause_mask != 0

    # -------------------------------------------------------------- data path
    def enqueue(self, segment: Segment) -> None:
        """Queue a segment for transmission (admission already decided)."""
        if self.peer is None:
            raise RuntimeError(f"egress port {self.name!r} is not connected")
        self.queue.append(segment)
        self.queued_bytes += segment.size
        segment.enqueued_at = self.sim._now   # direct: per-segment hot path
        # Inlined _kick (minus its queue check — we just appended): under
        # load the port is already draining and this is one compare.  The
        # gate is head-of-line: the port is a single FIFO, so it transmits
        # iff the *head* segment's class is unpaused.
        if not self.busy and not (
                self.pause_mask
                and (self.pause_mask >> self.queue[0].priority) & 1):
            self.busy = True
            if not self._tx_started:
                self._tx_started = True
                self.sim.spawn(self._tx_loop(), name=f"{self.name}:tx")
            else:
                wake, self._wake = self._wake, None
                assert wake is not None  # parked loop always leaves its wake
                wake.succeed(None)

    def set_paused(self, paused: bool,
                   priority: int = PAUSE_ALL) -> None:
        """PFC gate for one priority class (default: every class).

        Pausing takes effect at the next packet boundary.  Only the named
        class is gated — traffic of other classes keeps transmitting unless
        a paused-class segment is at the head of the FIFO (802.1Qbb with
        the single-queue head-of-line caveat, see DESIGN.md).
        """
        if priority == EgressPort.PAUSE_ALL:
            self.pause_mask = -1 if paused else 0
        elif paused:
            self.pause_mask |= (1 << priority)
        else:
            self.pause_mask &= ~(1 << priority)
        if not paused:
            self._kick()

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
    def _kick(self) -> None:
        if self.busy or not self.queue:
            return
        if self.pause_mask and (self.pause_mask >> self.queue[0].priority) & 1:
            return
        self.busy = True
        if not self._tx_started:
            self._tx_started = True
            self.sim.spawn(self._tx_loop(), name=f"{self.name}:tx")
        else:
            wake, self._wake = self._wake, None
            assert wake is not None  # parked loop always leaves its wake
            wake.succeed(None)

    def _serialization_ns(self, segment: Segment) -> int:
        ns = self._ser_cache.get(segment.size)
        if ns is None:
            wire_bytes = segment.size + self.params.header_bytes
            ns = max(1, int(round(wire_bytes * 8 / self.bandwidth_bps * 1e9)))
            self._ser_cache[segment.size] = ns
        return ns

    def _tx_loop(self):
        sim = self.sim
        propagation_ns = self.params.link_propagation_ns
        ser_cache = self._ser_cache
        queue = self.queue
        popleft = queue.popleft
        # The wire's endpoint is fixed once connected (the loop only spawns
        # after the first enqueue, which requires a peer), so resolve the
        # receive target once instead of per segment.
        peer_receive = self.peer.receive
        peer_port = self.peer_port
        on_dequeue = self.on_dequeue     # fixed at construction

        # Fired deliver-timeouts come back here for reuse (several can be
        # in flight at once on a long wire, hence a pool, not a single).
        deliver_pool: list = []

        def deliver_cb(ev):
            # Shared across all deliveries on this wire: the segment rides
            # as the timeout's value, so no per-segment closure is built.
            peer_receive(ev._value, peer_port)
            deliver_pool.append(ev)

        # The serialization timeout has exactly one in flight (the loop
        # blocks on it), so a single recycled object serves every segment.
        ser_timeout: Optional[Timeout] = None
        while True:
            while queue and not (
                    self.pause_mask
                    and (self.pause_mask >> queue[0].priority) & 1):
                segment = popleft()
                ser_ns = ser_cache.get(segment.size)
                if ser_ns is None:
                    ser_ns = self._serialization_ns(segment)
                if ser_timeout is None:
                    ser_timeout = Timeout(sim, ser_ns)
                else:
                    ser_timeout._rearm(ser_ns)
                yield ser_timeout
                # Accounting happens at the dequeue-complete instant: the
                # segment occupies the buffer until it has fully left the
                # wire, so occupancy-based PFC/ECN decisions never see a
                # window where bytes vanished while the port is still busy.
                size = segment.size
                self.queued_bytes -= size
                self.tx_segments += 1
                self.tx_bytes += size
                # Hand-inlined call_after with the segment as the timeout's
                # value: zero per-delivery closures, recycled objects.
                if deliver_pool:
                    deliver = deliver_pool.pop()._rearm(
                        propagation_ns, segment)
                else:
                    deliver = Timeout(sim, propagation_ns, segment)
                deliver.callbacks.append(deliver_cb)
                if on_dequeue is not None:
                    on_dequeue(segment)
            # Idle (or paused): park on a wake event until the next kick.
            # The wake object is recycled across idle transitions — after
            # it fires nothing else holds a reference (the loop was its
            # only waiter), so resetting three slots replaces a fresh
            # allocation per idle gap.
            self.busy = False
            wake = self._park
            if wake is None:
                wake = self._park = Event(sim)
            else:
                wake._value = _PENDING
                wake._ok = None
                wake.callbacks = []
            self._wake = wake
            yield wake
