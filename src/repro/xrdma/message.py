"""X-RDMA messages and their wire headers.

Every transmission carries an :class:`XrdmaHeader` — in bare-data mode a
minimal seq/ack header, in req-rsp mode an extended header with tracing
fields (Sec. VI-A).  The header is what makes the protocol extensions work:
the piggybacked ``ack`` drives the seq-ack window on every message.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event
    from repro.xrdma.channel import XrdmaChannel

#: Header bytes added to every payload.
BARE_HEADER_BYTES = 16
#: Extended header with trace id + timestamps (req-rsp mode, Sec. VI-A).
REQRSP_HEADER_BYTES = 64


class MessageKind(Enum):
    """Message roles on a channel; control kinds never reach the app."""
    ONEWAY = auto()      #: fire-and-forget (acked by the window only)
    REQUEST = auto()     #: expects a response (built-in RPC)
    RESPONSE = auto()
    ACK = auto()         #: standalone window acknowledgement
    NOP = auto()         #: deadlock breaker (Sec. V-B)
    CLOSE = auto()       #: orderly shutdown; lets both sides recycle QPs
    RNDV_CTS = auto()    #: write-rendezvous grant: receiver names its buffer
    RNDV_FIN = auto()    #: write-rendezvous notify (rides the last WRITE_IMM)


@dataclass
class XrdmaHeader:
    """What actually rides the wire ahead of the payload."""

    kind: MessageKind
    seq: int
    ack: int
    msg_id: int
    payload_size: int
    #: large-message rendezvous: where the receiver should RDMA-Read from
    src_addr: int = 0
    src_rkey: int = 0
    large: bool = False
    #: write-rendezvous correlation: the data seq a control header
    #: (RNDV_CTS / RNDV_FIN, which ride with ``seq=-1``) refers to
    rendezvous_seq: int = -1
    #: RPC correlation
    request_msg_id: int = 0
    #: req-rsp tracing fields
    trace_id: int = 0
    sent_at_ns: int = 0
    #: XR-Trace span context for sampled messages (rides with the header
    #: end to end; None when unsampled or tracing is off)
    trace: Any = None
    #: opaque application payload riding with the header
    user_payload: Any = None

    def wire_bytes(self, req_rsp: bool) -> int:
        """Header size on the wire for the current tracing mode."""
        return REQRSP_HEADER_BYTES if req_rsp else BARE_HEADER_BYTES


@dataclass
class XrdmaMessage:
    """A message as the application sees it.

    Outgoing: returned by ``send_msg``; ``acked`` fires when the *peer
    application* has consumed it (window semantics, not just hardware
    delivery) and ``response`` fires for REQUESTs.

    Incoming: delivered by ``polling``/handlers with ``payload`` and
    ``channel`` set.
    """

    kind: MessageKind
    payload_size: int
    payload: Any = None
    #: numbered by the channel that queues it (0 until then); an
    #: incoming message carries the sender's in ``header.msg_id``
    msg_id: int = 0
    channel: Optional["XrdmaChannel"] = None
    header: Optional[XrdmaHeader] = None
    #: sender side events (created by the channel when queued)
    acked: Optional["Event"] = None
    response: Optional["Event"] = None
    #: timestamps for tracing / latency accounting
    created_at: int = 0
    delivered_at: int = 0
    #: correlation for responses
    request_msg_id: int = 0
    #: rendezvous source: the registered buffer the peer reads from (or we
    #: write from), and whether the channel allocated it and must free it
    src_buffer: Any = None
    owns_buffer: bool = False

    @property
    def is_request(self) -> bool:
        """True for RPC requests (``send_response`` accepts these)."""
        return self.kind is MessageKind.REQUEST
