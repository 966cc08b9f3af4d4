"""Dynamically-connected transport (DCT) — the Discussion's alternative
for massive RC connection counts (Sec. IX).

The paper: "We are evaluating DCT from different aspects, and the recent
test result shows DCT can benefit massive connections to some extent but
DCT is not mature and stable enough in our tests."

Model, following Mellanox DC semantics:

* a **DC initiator** (DCI) replaces N RC QPs with one send-side object;
  per-target *sessions* are created in-band (no 1 ms ``create_qp``, no
  CM handshake — the first packet connects);
* but a DCI talks to **one target at a time**: switching targets requires
  draining outstanding traffic and paying a reconnect cost — the
  head-of-line serialization that makes DCT latency fragile under fan-out;
* the **DC target** side consumes receives from an SRQ (DCT requires
  one), inheriting the SRQ's RNR exposure.

Sessions reuse the RC protocol machinery (a hidden QueuePair per target)
so reliability semantics are identical; what changes is the resource and
scheduling model.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional, Tuple

from repro.rnic.qp import QpState, QueuePair, SharedReceiveQueue
from repro.rnic.wqe import WorkRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.rnic.cq import CompletionQueue
    from repro.rnic.mr import ProtectionDomain
    from repro.rnic.nic import Rnic
    from repro.sim.engine import Simulator
    from repro.sim.params import SimParams

#: In-band session establishment: one extra round trip's worth of NIC work
#: on first contact with a target (vs ~4 ms for CM + create_qp).
DC_CONNECT_NS = 6_000
#: Cost of retargeting the initiator (drain + context switch in firmware).
DC_SWITCH_NS = 1_200


class DcTarget:
    """Receive side: one per host; all DC traffic lands in its SRQ."""

    def __init__(self, nic: "Rnic", pd: "ProtectionDomain",
                 recv_cq: "CompletionQueue",
                 srq: SharedReceiveQueue):
        self.nic = nic
        self.pd = pd
        self.recv_cq = recv_cq
        self.srq = srq
        self.dct_num = 0         #: numbered by the NIC's register_dc_target
        #: per-initiator responder QPs, created lazily on first contact
        self._responders: Dict[Tuple[int, int], QueuePair] = {}

    def _responder_for(self, initiator_host: int,
                       initiator_qpn: int) -> QueuePair:
        key = (initiator_host, initiator_qpn)
        responder = self._responders.get(key)
        if responder is None:
            responder = QueuePair(self.pd, self.recv_cq, self.recv_cq,
                                  sq_depth=16, rq_depth=1, srq=self.srq)
            responder.state = QpState.RTS
            responder.set_peer(initiator_host, initiator_qpn)
            self.nic.register_qp(responder)
            self._responders[key] = responder
        return responder

    @property
    def session_count(self) -> int:
        return len(self._responders)


class DcInitiator:
    """Send side: one object, many targets, one active session at a time."""

    def __init__(self, sim: "Simulator", params: "SimParams", nic: "Rnic",
                 pd: "ProtectionDomain", send_cq: "CompletionQueue"):
        self.sim = sim
        self.params = params
        self.nic = nic
        self.pd = pd
        self.send_cq = send_cq
        #: per-target hidden sessions (tiny: no receive ring, shared SQ)
        self._sessions: Dict[Tuple[int, int], QueuePair] = {}
        self._active: Optional[Tuple[int, int]] = None
        self._backlog: Deque[Tuple[Tuple[int, int], WorkRequest]] = deque()
        self._pump_running = False
        self.switches = 0
        self.connects = 0

    # ------------------------------------------------------------ resources
    @property
    def session_count(self) -> int:
        return len(self._sessions)

    def _session_for(self, target: Tuple[int, int]) -> QueuePair:
        session = self._sessions.get(target)
        if session is None:
            session = QueuePair(self.pd, self.send_cq, self.send_cq,
                                sq_depth=64, rq_depth=1)
            session.state = QpState.RTS
            session.set_peer(*target)
            self.nic.register_qp(session)
            self._sessions[target] = session
            self.connects += 1
        return session

    # ------------------------------------------------------------- data path
    def post_send(self, target_host: int, target_qpn: int,
                  wr: WorkRequest) -> None:
        """Queue a send toward ``(target_host, target_qpn)``.

        The initiator serializes across targets: traffic to the active
        target flows immediately; anything else waits for a drain+switch.
        """
        self._backlog.append(((target_host, target_qpn), wr))
        if not self._pump_running:
            self._pump_running = True
            self.sim.spawn(self._pump(), name="dci:pump")

    def _pump(self):
        try:
            while self._backlog:
                target, wr = self._backlog.popleft()
                if target != self._active:
                    yield from self._retarget(target)
                session = self._sessions[target]
                self.nic.post_send(session, wr)
        finally:
            self._pump_running = False

    def _retarget(self, target: Tuple[int, int]):
        # Drain the active session completely (the DCI serialization).
        if self._active is not None:
            active = self._sessions[self._active]
            while (active.outstanding or active.sq
                   or active.current_tx is not None
                   or active.reads_in_flight):
                yield self.sim.timeout(2_000)
            self.switches += 1
            yield self.sim.timeout(DC_SWITCH_NS)
        first_contact = target not in self._sessions
        self._session_for(target)
        if first_contact:
            yield self.sim.timeout(DC_CONNECT_NS)
        self._active = target
