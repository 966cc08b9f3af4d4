"""Queue pairs: verbs state machine plus RC protocol state.

The QP holds both the software-visible surface (SQ/RQ with bounded depths,
the RESET→INIT→RTR→RTS state machine) and the transport state the NIC
engine drives (PSNs, the outstanding-message window, reassembly state).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum, auto
from typing import TYPE_CHECKING, Deque, Dict, Optional

from repro.rnic.wqe import Opcode, WorkRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.rnic.cq import CompletionQueue
    from repro.rnic.mr import ProtectionDomain


class QpState(Enum):
    RESET = auto()
    INIT = auto()
    RTR = auto()
    RTS = auto()
    ERROR = auto()


#: Legal verbs transitions (modify_qp validates against this).
_TRANSITIONS = {
    QpState.RESET: {QpState.INIT, QpState.ERROR},
    QpState.INIT: {QpState.RTR, QpState.ERROR, QpState.RESET},
    QpState.RTR: {QpState.RTS, QpState.ERROR, QpState.RESET},
    QpState.RTS: {QpState.ERROR, QpState.RESET},
    QpState.ERROR: {QpState.RESET},
}


class QpStateError(RuntimeError):
    """Operation not allowed in the QP's current state."""


class SharedReceiveQueue:
    """SRQ: one receive pool shared by many QPs (Sec. VII-F experience)."""

    def __init__(self, depth: int = 1024):
        if depth <= 0:
            raise ValueError(f"SRQ depth must be positive: {depth}")
        self.depth = depth
        self.wqes: Deque[WorkRequest] = deque()

    def post(self, wr: WorkRequest) -> None:
        if len(self.wqes) >= self.depth:
            raise QpStateError("SRQ full")
        self.wqes.append(wr)

    def pop(self) -> Optional[WorkRequest]:
        return self.wqes.popleft() if self.wqes else None

    def __len__(self) -> int:
        return len(self.wqes)


@dataclass(slots=True)
class OutboundMessage:
    """Sender-side in-flight state for one WQE."""

    wr: WorkRequest
    msg_id: int                  #: from the QP's ``msg_ids``
    first_psn: int = 0
    last_psn: int = 0
    sent_bytes: int = 0          #: transmit progress (engine cursor)
    sent_at: int = 0             #: last (re)transmission start time
    acked: bool = False
    retries: int = 0
    rnr_retries: int = 0

    @property
    def fully_sent(self) -> bool:
        # Zero-length messages still carry one header-only fragment.
        return self.sent_bytes >= max(self.wr.length, 1)


@dataclass(slots=True)
class InboundMessage:
    """Receiver-side reassembly state for the in-progress message."""

    msg_id: int
    opcode: Opcode
    total_length: int
    received: int = 0
    recv_wr: Optional[WorkRequest] = None
    write_addr: int = 0
    imm_data: Optional[int] = None
    app_payload: object = None


class QueuePair:
    """One RC queue pair.  Created via the verbs layer or reused via the
    X-RDMA QP cache (RESET then re-INIT, skipping firmware allocation)."""

    def __init__(self, pd: "ProtectionDomain", send_cq: "CompletionQueue",
                 recv_cq: "CompletionQueue", sq_depth: int, rq_depth: int,
                 srq: Optional[SharedReceiveQueue] = None):
        self.qpn = 0             #: numbered by the NIC's register_qp
        self.pd = pd
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.sq_depth = sq_depth
        self.rq_depth = rq_depth
        self.srq = srq
        self.state = QpState.RESET
        # Peer addressing (set at RTR).
        self.remote_host: Optional[int] = None
        self.remote_qpn: Optional[int] = None
        # Software queues.
        self.sq: Deque[WorkRequest] = deque()
        self.rq: Deque[WorkRequest] = deque()
        # Transport state.
        self.send_psn = 0
        self.expected_psn = 0
        self.outstanding: Deque[OutboundMessage] = deque()
        self.current_tx: Optional[OutboundMessage] = None
        self.retx: Deque[OutboundMessage] = deque()
        self.rx_msg: Optional[InboundMessage] = None
        self.reads_in_flight: Dict[int, OutboundMessage] = {}
        #: message ids the peer echoes; never reset, so stale echoes miss
        self.msg_ids = itertools.count(1)
        #: set while waiting out an RNR backoff / go-back-N rewind
        self.tx_blocked_until = 0
        #: NAK dedup / spurious-rewind guards (receiver and sender side)
        self.last_nak_expected = -1
        self.last_rewind_ns = -(10 ** 18)

    # ------------------------------------------------------------ state mgmt
    def transition(self, new_state: QpState) -> None:
        if new_state not in _TRANSITIONS[self.state]:
            # Recorded for the sanitizer's counters; QpStateError is
            # already the fatal escalation on this path.  Imported here:
            # a module-level import would cycle (rnic.qp ← repro.analysis
            # ← repro.xrdma ← rnic.qp), and this branch is cold.
            from repro.analysis.invariants import note as _invariant_note
            _invariant_note(
                "qp.illegal_transition",
                f"qpn={self.qpn} {self.state.name} → {new_state.name}")
            raise QpStateError(
                f"illegal QP transition {self.state.name} → {new_state.name}")
        self.state = new_state

    def set_peer(self, remote_host: int, remote_qpn: int) -> None:
        self.remote_host = remote_host
        self.remote_qpn = remote_qpn

    def reset(self) -> None:
        """Return to RESET, dropping all queued and in-flight state."""
        self.state = QpState.RESET
        self.sq.clear()
        self.rq.clear()
        self.outstanding.clear()
        self.retx.clear()
        self.reads_in_flight.clear()
        self.current_tx = None
        self.rx_msg = None
        self.send_psn = 0
        self.expected_psn = 0
        self.tx_blocked_until = 0
        self.remote_host = None
        self.remote_qpn = None
        self.last_nak_expected = -1
        self.last_rewind_ns = -(10 ** 18)

    # --------------------------------------------------------------- posting
    def post_send(self, wr: WorkRequest) -> None:
        if self.state is not QpState.RTS:
            raise QpStateError(
                f"post_send in state {self.state.name} (need RTS)")
        if len(self.sq) + len(self.outstanding) >= self.sq_depth:
            raise QpStateError(f"SQ full (depth {self.sq_depth})")
        self.sq.append(wr)
        trace = getattr(wr.payload, "trace", None)
        if trace is not None:
            trace.mark("post_send")

    def post_recv(self, wr: WorkRequest) -> None:
        if self.srq is not None:
            raise QpStateError("QP uses an SRQ; post to the SRQ instead")
        if self.state in (QpState.RESET, QpState.ERROR):
            raise QpStateError(f"post_recv in state {self.state.name}")
        if len(self.rq) >= self.rq_depth:
            raise QpStateError(f"RQ full (depth {self.rq_depth})")
        self.rq.append(wr)

    def pop_recv(self) -> Optional[WorkRequest]:
        if self.srq is not None:
            return self.srq.pop()
        return self.rq.popleft() if self.rq else None

    @property
    def recv_buffers_posted(self) -> int:
        return len(self.srq) if self.srq is not None else len(self.rq)
