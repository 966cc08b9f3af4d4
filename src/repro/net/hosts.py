"""Minimal host devices for fabric-level testing and raw traffic tools.

Real endpoints are RNICs (:mod:`repro.rnic`); these lightweight hosts speak
raw segments and are used by fabric unit tests and by XR-Perf's raw mode.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.net.device import Device
from repro.net.packet import Segment

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology.clos import ClosTopology
    from repro.topology.link import EgressPort


class SimpleHost(Device):
    """A host that records arrivals and can inject raw segments.

    Honours PFC on its single uplink, so fabric back-pressure tests can use
    it as a traffic source.
    """

    def __init__(self, host_id: int):
        self.host_id = host_id
        self.name = f"host{host_id}"
        self.uplink: Optional["EgressPort"] = None
        self.received: List[Segment] = []
        self.rx_bytes = 0
        self.on_receive: Optional[Callable[[Segment], None]] = None

    def plug_into(self, topology: "ClosTopology") -> None:
        """Attach to the fabric as this host id."""
        self.uplink = topology.attach(self.host_id, self)

    def receive(self, segment: Segment, in_port: int) -> None:
        """Record an arrival (and invoke ``on_receive`` if set)."""
        self.received.append(segment)
        self.rx_bytes += segment.size
        if self.on_receive is not None:
            self.on_receive(segment)

    def pause_port(self, port: int, pause: bool) -> None:
        """Honour PFC by gating the single uplink."""
        if self.uplink is not None:
            self.uplink.set_paused(pause)

    def send(self, segment: Segment) -> None:
        """Inject a raw segment into the fabric."""
        if self.uplink is None:
            raise RuntimeError(f"{self.name} is not plugged into a fabric")
        self.uplink.enqueue(segment)
