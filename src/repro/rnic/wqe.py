"""Work requests and completions (WQEs and CQEs)."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Any, Optional


class Opcode(Enum):
    SEND = auto()
    SEND_IMM = auto()
    WRITE = auto()
    WRITE_IMM = auto()
    READ = auto()
    RECV = auto()           #: receive-side completion opcode
    RECV_IMM = auto()


class WrStatus(Enum):
    SUCCESS = auto()
    RNR_RETRY_EXCEEDED = auto()
    RETRY_EXCEEDED = auto()
    REMOTE_ACCESS_ERROR = auto()
    WR_FLUSH_ERROR = auto()      #: flushed when the QP entered ERROR
    LOCAL_PROTECTION_ERROR = auto()


@dataclass(slots=True)
class WorkRequest:
    """One posted operation.

    ``local_addr``/``length`` name the local buffer; one-sided ops also name
    ``remote_addr``/``rkey``.  ``signaled`` controls CQE generation at the
    requester (receive completions are always signaled).
    """

    opcode: Opcode
    length: int = 0
    local_addr: int = 0
    remote_addr: int = 0
    rkey: int = 0
    imm_data: Optional[int] = None
    signaled: bool = True
    #: opaque application object delivered with the receive completion
    #: (stands in for the bytes a real SEND would carry)
    payload: Any = None
    #: the poster's cookie, echoed in the CQE (as in ibverbs)
    wr_id: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"negative WR length: {self.length}")
        if self.opcode in (Opcode.WRITE, Opcode.WRITE_IMM, Opcode.READ) \
                and self.rkey == 0:
            raise ValueError(f"{self.opcode.name} requires an rkey")
        if self.opcode in (Opcode.SEND_IMM, Opcode.WRITE_IMM) \
                and self.imm_data is None:
            raise ValueError(f"{self.opcode.name} requires imm_data")


@dataclass(slots=True)
class Completion:
    """A CQE."""

    wr_id: int
    status: WrStatus
    opcode: Opcode
    qp_num: int
    byte_len: int = 0
    imm_data: Optional[int] = None
    #: local buffer address for receive completions
    addr: int = 0
    #: application payload from the sender's WR (receive completions)
    payload: Any = None

    @property
    def ok(self) -> bool:
        return self.status is WrStatus.SUCCESS
