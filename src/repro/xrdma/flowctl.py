"""Built-in flow control (Sec. V-C): fragmentation + queuing.

DCQCN is reactive — by the time CNPs arrive, the incast burst has already
filled switch queues.  X-RDMA bounds the burst at the source:

* **Fragmentation** — a payload transfer larger than ``fragment_bytes``
  becomes several moderate WRs, so one huge WQE cannot occupy the NIC
  engine or dump megabytes into the fabric in one go.
* **Queuing** — at most ``max_outstanding_wrs`` data WRs per channel are in
  the SQ at once; the rest wait in a software queue.

Both act purely above verbs, exactly as the paper requires ("without
specific hardware or software constraints").
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional, Tuple

from repro.analysis import invariants
from repro.analysis.invariants import check as _invariant
from repro.rnic.wqe import WorkRequest
from repro.sim.process import ProcessGenerator

if TYPE_CHECKING:  # pragma: no cover
    from repro.rnic.qp import QueuePair
    from repro.verbs.api import VerbsContext


class WrBudget:
    """Context-global cap on outstanding data WRs (the Sec. V-C queue).

    The per-channel cap alone cannot stop a node with thousands of
    connections from over-requesting its own inbound link; the shared
    budget serializes aggregate demand so the switch queue never builds —
    this is what drives CNPs to the paper's 1–2% residue (Fig. 10).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"budget capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque["FlowController"] = deque()
        #: every controller sharing this budget (invariant accounting:
        #: ``in_use == Σ controller.budget_held`` at all times)
        self.controllers: List["FlowController"] = []

    @property
    def available(self) -> bool:
        return self.in_use < self.capacity

    def acquire(self) -> None:
        """Charge one slot (caller checked ``available``)."""
        self.in_use += 1
        # Hot path: test the condition first so the detail closure is only
        # built on the (never-in-practice) violated branch.
        if self.in_use > self.capacity:
            _invariant(False, "flowctl.budget_overcommit",
                       lambda: f"in_use={self.in_use} "
                               f"capacity={self.capacity}")

    def release(self) -> None:
        """Return one slot; underflow is a protocol bug, not a clamp."""
        self.in_use -= 1
        if self.in_use < 0:
            _invariant(False, "flowctl.budget_underflow",
                       lambda: f"in_use={self.in_use}")
            self.in_use = 0  # contain in count mode

    def audit(self) -> None:
        """Mid-run conservation check: ``in_use == Σ budget_held``.

        Called (under ``invariants.ENABLED``) right after a charge or a
        release has moved both halves, so a transfer torn across a yield
        — one half moved, the other after the yield — is seen by the
        next controller to issue or complete while it is torn.  The deep
        check at quiescence (``flowctl.budget_mismatch``) sees only
        finished transfers.
        """
        held = sum(c.budget_held for c in self.controllers)
        if held != self.in_use:
            _invariant(False, "flowctl.budget_mismatch",
                       lambda: f"in_use={self.in_use} "
                               f"sum(budget_held)={held}")

    def enqueue_waiter(self, controller: "FlowController") -> None:
        if controller not in self._waiters:
            self._waiters.append(controller)

    def drain(self) -> ProcessGenerator:
        """Generator: grant freed slots to waiting controllers, FIFO.

        A controller refused on its *per-channel* cap (not the budget)
        stays registered as a waiter — it must not lose its place just
        because its own pipeline is momentarily full — but is not polled
        again within this pass, or the loop would spin on it.
        """
        deferred: List["FlowController"] = []
        while self.available and self._waiters:
            controller = self._waiters.popleft()
            issued = yield from controller.admit_queued()
            if not controller.queued:
                continue
            if issued:
                self._waiters.append(controller)
            else:
                deferred.append(controller)
        for controller in deferred:
            if controller.queued:
                self.enqueue_waiter(controller)


class FlowController:
    """Per-channel outstanding-WR governor (plus the shared budget)."""

    def __init__(self, verbs: "VerbsContext", qp: "QueuePair",
                 max_outstanding: int, fragment_bytes: int,
                 enabled: bool = True,
                 budget: Optional[WrBudget] = None) -> None:
        self.verbs = verbs
        self.qp = qp
        self.max_outstanding = max_outstanding
        self.fragment_bytes = fragment_bytes
        self.enabled = enabled
        self.budget = budget
        self.outstanding = 0
        #: budget slots currently charged to this channel.  Tracked apart
        #: from ``outstanding`` so toggling ``enabled`` mid-flight (or a
        #: teardown racing completions) can never skew the shared budget.
        self.budget_held = 0
        #: in-flight WRs whose slots drop_all() already returned; their
        #: late completions must not release (or admit) anything again.
        self._abandoned = 0
        self._queue: Deque[WorkRequest] = deque()
        self.queued_total = 0
        if budget is not None:
            budget.controllers.append(self)

    # ---------------------------------------------------------------- sizing
    def fragment_sizes(self, length: int) -> List[int]:
        """How a payload of ``length`` splits into WRs under current policy."""
        if not self.enabled or length <= self.fragment_bytes:
            return [length]
        sizes = []
        remaining = length
        while remaining > 0:
            step = min(self.fragment_bytes, remaining)
            sizes.append(step)
            remaining -= step
        return sizes

    def fragment_layout(self, length: int) -> List[Tuple[int, int, bool]]:
        """``(offset, size, last)`` triples for one payload.

        The posting plan the protocol strategies share: receiver-Read
        rendezvous issues one READ per triple, sender-Write rendezvous
        one WRITE (the last a WRITE_IMM) — same fragmentation policy,
        different opcode.
        """
        sizes = self.fragment_sizes(length)
        layout = []
        offset = 0
        for index, size in enumerate(sizes):
            layout.append((offset, size, index == len(sizes) - 1))
            offset += size
        return layout

    # --------------------------------------------------------------- posting
    def _may_issue(self) -> bool:
        if not self.enabled:
            return True
        if self.outstanding >= self.max_outstanding:
            return False
        budget = self.budget
        return budget is None or budget.in_use < budget.capacity

    def post(self, wr: WorkRequest) -> ProcessGenerator:
        """Generator: post ``wr`` now, or queue it if a cap is reached."""
        if not self._may_issue():
            self._queue.append(wr)
            self.queued_total += 1
            if self.enabled and self.budget is not None:
                self.budget.enqueue_waiter(self)
            return
        yield from self._issue(wr)

    def _issue(self, wr: WorkRequest) -> ProcessGenerator:
        trace = getattr(wr.payload, "trace", None)
        if trace is not None:
            trace.mark("flowctl_queue")
        self.outstanding += 1
        if self.enabled and self.budget is not None:
            self.budget.acquire()
            self.budget_held += 1
            if invariants.ENABLED:
                self.budget.audit()
        yield self.verbs.post_send(self.qp, wr)

    def admit_queued(self) -> ProcessGenerator:
        """Generator: issue one queued WR if allowed; returns True if so."""
        if not self._queue or not self._may_issue():
            return False
        yield from self._issue(self._queue.popleft())
        return True

    def on_completion(self) -> ProcessGenerator:
        """Generator: a data WR completed; admit queued work (here first,
        then any channel waiting on the shared budget)."""
        if self._abandoned:
            # A WR drop_all() already accounted for: its slot went back to
            # the budget at teardown; releasing again would over-admit.
            self._abandoned -= 1
            return
        self.outstanding -= 1
        if self.outstanding < 0:
            _invariant(False, "flowctl.outstanding_underflow",
                       lambda: f"qpn={self.qp.qpn}")
            self.outstanding = 0
        budget = self.budget
        if budget is not None and self.budget_held > 0:
            self.budget_held -= 1
            budget.release()
            if invariants.ENABLED:
                budget.audit()
        # admit_queued's loop, inline: no generator per admitted WR.
        queue = self._queue
        while queue and self._may_issue():
            yield from self._issue(queue.popleft())
        if self.enabled and budget is not None:
            if queue:
                budget.enqueue_waiter(self)
            if budget._waiters:
                yield from budget.drain()

    @property
    def queued(self) -> int:
        return len(self._queue)

    def drop_all(self) -> int:
        """Channel teardown: abandon queued WRs and release every held
        budget slot exactly once.

        The slots go back now (the channel is dead; holding them would
        starve live channels), and the still-in-flight WRs are remembered
        so their late completions do not release a second time — a double
        release lets ``budget.in_use`` drift below the true holdings and
        over-admit.
        """
        dropped = len(self._queue)
        self._queue.clear()
        if self.budget is not None:
            while self.budget_held:
                self.budget_held -= 1
                self.budget.release()
            try:
                self.budget._waiters.remove(self)
            except ValueError:
                pass
        self._abandoned += self.outstanding
        self.outstanding = 0
        return dropped
