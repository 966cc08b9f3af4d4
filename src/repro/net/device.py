"""Attach-point protocol for anything plugged into the fabric."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Segment


class Device:
    """Anything that can terminate a link: a switch or a host NIC.

    Subclasses implement :meth:`receive`; the egress-port machinery calls it
    when a segment finishes propagating down the wire.
    """

    name: str = "device"

    def receive(self, segment: "Segment", in_port: int) -> None:
        """Handle a segment delivered on ``in_port``."""
        raise NotImplementedError

    def pause_port(self, port: int, pause: bool) -> None:
        """PFC pause (or resume) from the downstream device on ``port``.

        Default: ignore (hosts that don't honour PFC).  Switches and NICs
        override this to gate their egress ports.
        """
