"""libibverbs-shaped API over the simulated RNIC.

Calls that cost host time return events; application processes yield them::

    mr = yield ctx.reg_mr(pd, buf.addr, buf.length)
    yield ctx.post_send(qp, wr)
    completions = ctx.poll_cq(cq)       # non-blocking, like ibv_poll_cq

The cost model is the part that matters to the middleware: MR registration
is tens of µs (why X-RDMA pools 4 MB MRs), QP creation is ~1 ms (why the QP
cache exists), posting is ~200 ns (why per-message overheads stay small).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.memory.host import AllocMode, HostMemory
from repro.rnic.cq import CompletionQueue
from repro.rnic.mr import AccessFlags, MemoryRegion, ProtectionDomain
from repro.rnic.qp import QpState, QueuePair, SharedReceiveQueue
from repro.rnic.wqe import Completion, WorkRequest
from repro.sim.events import Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.rnic.nic import Rnic
    from repro.sim.engine import Simulator
    from repro.sim.params import SimParams


class _Charged(Event):
    """A verbs call as one event: it fires ``cost_ns`` after the call, runs
    the effect as its first callback and carries the effect's result — or
    exception — as its value, so the caller resumes in the same pop.  A
    failure nobody waits on raises :class:`SimulationError`, as an
    unobserved failed event does."""

    __slots__ = ("_effect", "_waiters")

    def __init__(self, sim: "Simulator", cost_ns: int,
                 effect: Callable[[], object]) -> None:
        super().__init__(sim)
        self._effect = effect
        # The fire loop detaches ``callbacks`` before running them, so
        # the effect keeps its own handle on the waiter list.
        self._waiters = self.callbacks
        self.callbacks.append(self._apply)
        sim.schedule(cost_ns, None, self)

    def _apply(self, _event: Event) -> None:
        # Dropping the list breaks the cycle it closes through this bound
        # method, so a fired call is freed by refcount, not by the GC.
        waiters, self._waiters = self._waiters, None
        try:
            self._value = self._effect()
            self._ok = True
        except BaseException as exc:
            # Not swallowed: the waiters see it raised at their yield, and
            # with none it escalates below.
            self._ok = False
            self._value = exc
            if len(waiters) == 1 and not self.defused:
                raise SimulationError(
                    f"unhandled failure in {self.name!r}: {exc!r}") from exc


class VerbsContext:
    """One process's handle on its host's RNIC (ibv_context)."""

    def __init__(self, sim: "Simulator", params: "SimParams", nic: "Rnic",
                 memory: Optional[HostMemory] = None):
        self.sim = sim
        self.params = params
        self.nic = nic
        self.memory = memory or HostMemory()
        self.mrs_registered = 0
        self.qps_created = 0
        #: charged verbs calls made (each is one event, see _Charged)
        self.calls = 0
        #: every CQ created through this context (ibv_context owns its CQs)
        self.cqs: List[CompletionQueue] = []

    # ----------------------------------------------------------------- infra
    def _charged(self, cost_ns: int, effect: Callable[[], object]) -> Event:
        """Run ``effect`` after ``cost_ns``; the event carries its result."""
        self.calls += 1
        return _Charged(self.sim, cost_ns, effect)

    # ------------------------------------------------------------------- PDs
    def alloc_pd(self) -> ProtectionDomain:
        return ProtectionDomain()

    # ------------------------------------------------------------------- MRs
    def reg_mr(self, pd: ProtectionDomain, addr: int, length: int,
               access: AccessFlags = AccessFlags.all_remote()) -> Event:
        """Register RDMA-enabled memory (pins pages; cost scales with size)."""
        return self._charged(self.params.mr_register_ns(length),
                             lambda: self._install(pd, addr, length, access))

    def reg_mr_odp(self, pd: ProtectionDomain, addr: int, length: int,
                   access: AccessFlags = AccessFlags.all_remote()) -> Event:
        """Register without pinning (on-demand paging, the NP-RDMA model).

        Registration is cheap — no pages are pinned — but accesses to
        non-resident pages later pay fault latency (charged by the
        no-pin MemCache at buffer hand-out)."""
        return self._charged(self.params.odp_register_ns,
                             lambda: self._install(pd, addr, length, access))

    def _install(self, pd: ProtectionDomain, addr: int, length: int,
                 access: AccessFlags) -> MemoryRegion:
        """The effect every registration shares: register in the NIC
        translation table, count."""
        mr = self.nic.mr_table.register(pd, addr, length, access)
        self.mrs_registered += 1
        return mr

    def dereg_mr(self, pd: ProtectionDomain, mr: MemoryRegion) -> Event:
        return self._charged(self.params.mr_register_base_ns // 2,
                             lambda: self.nic.mr_table.deregister(pd, mr))

    # ------------------------------------------------------------------- CQs
    def create_cq(self, depth: int = 1024) -> CompletionQueue:
        cq = CompletionQueue(self.sim, depth)
        self.cqs.append(cq)
        return cq

    def create_srq(self, depth: int = 1024) -> SharedReceiveQueue:
        return SharedReceiveQueue(depth)

    # ------------------------------------------------------------------- QPs
    def create_qp(self, pd: ProtectionDomain, send_cq: CompletionQueue,
                  recv_cq: CompletionQueue,
                  srq: Optional[SharedReceiveQueue] = None) -> Event:
        """Allocate a QP (≈1 ms of firmware/driver work)."""
        def effect() -> QueuePair:
            qp = QueuePair(
                pd, send_cq, recv_cq,
                sq_depth=self.params.max_send_queue_depth,
                rq_depth=self.params.max_recv_queue_depth, srq=srq)
            self.nic.register_qp(qp)
            self.qps_created += 1
            return qp
        return self._charged(self.params.qp_create_ns, effect)

    def modify_qp(self, qp: QueuePair, state: QpState,
                  remote_host: Optional[int] = None,
                  remote_qpn: Optional[int] = None) -> Event:
        """One verbs state transition (each costs ``qp_modify_ns``)."""
        def effect() -> QueuePair:
            if state is QpState.RESET:
                qp.reset()
            else:
                qp.transition(state)
            if state is QpState.RTR:
                if remote_host is None or remote_qpn is None:
                    raise ValueError("RTR requires remote_host and remote_qpn")
                qp.set_peer(remote_host, remote_qpn)
            return qp
        cost = (self.params.qp_reset_ns if state is QpState.RESET
                else self.params.qp_modify_ns)
        return self._charged(cost, effect)

    def destroy_qp(self, qp: QueuePair) -> Event:
        def effect() -> None:
            self.nic.destroy_qp(qp)
        return self._charged(self.params.qp_reset_ns, effect)

    # -------------------------------------------------------------------- DC
    def create_dc_initiator(self, pd: ProtectionDomain,
                            send_cq: CompletionQueue):
        """A DC initiator (DCI): one send object, many targets (Sec. IX)."""
        from repro.rnic.dct import DcInitiator
        return DcInitiator(self.sim, self.params, self.nic, pd, send_cq)

    def create_dc_target(self, pd: ProtectionDomain,
                         recv_cq: CompletionQueue,
                         srq: SharedReceiveQueue):
        """A DC target (DCT); receives land in the mandatory SRQ."""
        from repro.rnic.dct import DcTarget
        target = DcTarget(self.nic, pd, recv_cq, srq)
        self.nic.register_dc_target(target)
        return target

    # ----------------------------------------------------------------- datap
    def post_send(self, qp: QueuePair, wr: WorkRequest) -> Event:
        return self._charged(
            self.params.host_post_overhead_ns,
            lambda: self.nic.post_send(qp, wr))

    def post_recv(self, qp: QueuePair, wr: WorkRequest) -> Event:
        return self._charged(
            self.params.host_post_overhead_ns,
            lambda: qp.post_recv(wr))

    def post_srq_recv(self, srq: SharedReceiveQueue,
                      wr: WorkRequest) -> Event:
        return self._charged(
            self.params.host_post_overhead_ns,
            lambda: srq.post(wr))

    def poll_cq(self, cq: CompletionQueue,
                max_entries: int = 16) -> List[Completion]:
        """Non-blocking poll (the caller's loop provides pacing)."""
        return cq.poll(max_entries)
