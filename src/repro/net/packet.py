"""The wire unit of the simulation.

The fabric is simulated at *segment* granularity: one
:class:`Segment` is at most one MTU of payload (RNICs split larger work
requests).  Control traffic — RC ACK/NAKs, CNPs, PFC pause frames — are
segments too, so everything contends for the same queues the way it does on
a real RoCEv2 network.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Any


class SegmentKind(Enum):
    """What a segment carries; switches treat kinds differently."""

    DATA = auto()        #: RC payload (or payload-carrying first/only packet)
    ACK = auto()         #: RC acknowledgement / NAK
    CNP = auto()         #: DCQCN congestion-notification packet
    CONTROL = auto()     #: connection management (rdma_cm, TCP handshakes)


@dataclass(slots=True)
class Segment:
    """One simulated wire unit.

    ``flow_id`` identifies the 5-tuple-equivalent used by ECMP hashing and
    by DCQCN (one rate limiter per flow/QP).  ``payload`` carries the
    higher-layer object (an RC packet, a CM message, ...), opaque to the
    fabric.  Every segment rides the one lossless PFC class, and ``kind``
    alone decides ECN eligibility: switches mark DATA segments only.
    """

    src: int                          #: source host id
    dst: int                          #: destination host id
    size: int                         #: payload bytes on the wire
    kind: SegmentKind = SegmentKind.DATA
    flow_id: int = 0
    ecn_marked: bool = False
    payload: Any = None
    hops: int = 0                     #: switch traversals so far
    #: PFC ingress accounting, stamped by the switch that queued the
    #: segment so its dequeue hook can find the right ingress counter.
    pfc_switch: Any = None
    pfc_ingress: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"segment size must be >= 0, got {self.size}")
