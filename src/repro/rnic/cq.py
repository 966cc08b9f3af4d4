"""Completion queues.

A CQ has a fixed depth; overflowing it is a hard error in real hardware, so
it is one here too (X-RDMA's in-flight window keeps WRs below CQ depth
precisely to avoid that).  ``notify`` arms an event callback used to emulate
the completion-channel fd that epoll waits on.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional

from repro.rnic.wqe import Completion

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class CqOverflow(RuntimeError):
    """More completions outstanding than the CQ depth."""


class CompletionQueue:
    def __init__(self, sim: "Simulator", depth: int = 1024):
        if depth <= 0:
            raise ValueError(f"CQ depth must be positive: {depth}")
        self.sim = sim
        self.depth = depth
        self._entries: Deque[Completion] = deque()
        self._notify_cb: Optional[Callable[[], None]] = None
        self.total_completions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, completion: Completion) -> None:
        """NIC-side: append a CQE (hard error on overflow, like hardware)."""
        if len(self._entries) >= self.depth:
            raise CqOverflow(
                f"CQ overflow at depth {self.depth}")
        self._entries.append(completion)
        self.total_completions += 1
        if self._notify_cb is not None:
            callback, self._notify_cb = self._notify_cb, None
            callback()

    def poll(self, max_entries: int = 16) -> List[Completion]:
        """Drain up to ``max_entries`` CQEs (non-blocking, like ibv_poll_cq)."""
        out: List[Completion] = []
        while self._entries and len(out) < max_entries:
            out.append(self._entries.popleft())
        return out

    def request_notify(self, callback: Callable[[], None]) -> None:
        """One-shot: call ``callback`` at the next CQE (completion channel).

        If entries are already pending, fires immediately — matching the
        ibv_req_notify_cq + recheck idiom.
        """
        if self._entries:
            callback()
        else:
            self._notify_cb = callback
