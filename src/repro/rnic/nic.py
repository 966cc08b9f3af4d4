"""The RNIC engine: transmit scheduling, the RC protocol, and completion.

Modelling choices that matter to the middleware experiments:

* **WQE-atomic transmit.**  The engine works on one WQE until its segments
  are all out (pacing gaps excepted), so a multi-megabyte WRITE occupies the
  engine and delays every other QP — the head-of-line blocking X-RDMA's
  64 KB fragmentation removes (Sec. V-C).
* **Go-back-N RC.**  Each data fragment consumes a PSN; the receiver accepts
  in order only.  Loss or RNR rewinds the sender to the oldest unacked
  message.  Retry budgets exhausting moves the QP to ERROR and flushes,
  exactly the failure the keepAlive extension exists to detect early.
* **RNR NAK.**  A SEND whose first fragment finds no posted receive raises
  a receiver-not-ready NAK (counted in :class:`~repro.net.stats.NetStats`,
  Fig. 9) and backs the sender off.
* **DCQCN per QP.**  Data fragments reserve wire time from the QP's
  rate limiter; ECN-marked arrivals answer with CNPs (paced per flow).
* **QP-context cache.**  An LRU of ``nic_qp_cache_entries`` QPNs; a miss
  charges ``nic_qp_cache_miss_ns`` of engine time (Sec. VII-F exp. 1).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, deque
from typing import (TYPE_CHECKING, Callable, Deque, Dict, Optional, Tuple,
                    Union)

from repro.net.device import Device
from repro.net.packet import Segment, SegmentKind
from repro.rnic.cq import CompletionQueue
from repro.rnic.mr import MrTable
from repro.rnic.packets import CTRL_BYTES, RcKind, RcPacket
from repro.rnic.qp import (InboundMessage, OutboundMessage, QpState,
                           QueuePair, SharedReceiveQueue)
from repro.rnic.wqe import Completion, Opcode, WorkRequest, WrStatus
from repro.transport.dcqcn import CnpGovernor, DcqcnRateLimiter

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.stats import NetStats
    from repro.sim.engine import Simulator
    from repro.sim.params import SimParams
    from repro.topology.clos import ClosTopology
    from repro.topology.link import EgressPort


class _ReadJob:
    """Responder-side streaming of a remote read (no host CPU involved)."""

    __slots__ = ("requester_host", "requester_qpn", "responder_qpn",
                 "msg_id", "addr", "length", "sent")

    def __init__(self, requester_host: int, requester_qpn: int,
                 responder_qpn: int, msg_id: int, addr: int, length: int):
        self.requester_host = requester_host
        self.requester_qpn = requester_qpn
        self.responder_qpn = responder_qpn
        self.msg_id = msg_id
        self.addr = addr
        self.length = length
        self.sent = 0


_TxJob = Union[QueuePair, _ReadJob]

#: per-port transmit buffer: a job whose port holds this many queued
#: bytes is requeued instead of served (back-pressure, also under PFC)
_TX_BUFFER_BYTES = 256 * 1024


class Rnic(Device):
    """One host's RDMA NIC, attached to the fabric as a Device."""

    def __init__(self, sim: "Simulator", params: "SimParams",
                 stats: "NetStats", host_id: int):
        self.sim = sim
        self.params = params
        self.stats = stats
        self.host_id = host_id
        self.name = f"rnic{host_id}"
        self.uplink: Optional["EgressPort"] = None
        self.uplinks: list = []
        self._flow_ports: Dict[int, int] = {}
        self.alive = True

        # QPNs and DCT numbers are per-device namespaces, as on an RNIC.
        self.qps: Dict[int, QueuePair] = {}
        self._qpns = itertools.count(0x100)
        #: DC targets by dct_number (Sec. IX DCT evaluation)
        self.dc_targets: Dict[int, object] = {}
        self._dct_numbers = itertools.count(0xD000)
        self.mr_table = MrTable()
        self.limiters: Dict[int, DcqcnRateLimiter] = {}     # by local qpn
        self.cnp_governor = CnpGovernor(sim, params)
        #: CONTROL-segment handler (rdma_cm agent, TCP mock) by logical port
        self.control_handlers: Dict[int, Callable[[Segment], None]] = {}

        self._ready: Deque[_TxJob] = deque()
        self._in_ready: set = set()                         # ids of queued jobs
        #: transmit engines waiting for work (one engine per NIC port)
        self._tx_idle = 0
        #: DMA time by fragment size: fragments come in a handful of sizes
        #: (MTU, CTRL, message remainders), so the float math is memoized
        #: the way EgressPort memoizes serialization
        self._dma_cache: Dict[int, int] = {}
        self._qp_cache: "OrderedDict[int, bool]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        #: fragments the transmit engine emitted (data, READ requests and
        #: READ-response fragments), one engine occupancy each
        self.tx_fragments = 0
        #: WQE starts DCQCN pacing deferred to the limiter's next slot
        self.dcqcn_deferrals = 0
        #: transmit-engine runs scheduled after each port's start: wakes
        #: of an idle engine and back-pressure retries
        self.tx_wakes = 0
        self._watchdogs: set = set()                        # qpns with watchdog
        self.sim.schedule(0, self._tx_run)      # start, as a bootstrap does

    # --------------------------------------------------------------- fabric
    def plug_into(self, topology: "ClosTopology", ports: int = 1) -> None:
        """Attach to the fabric with ``ports`` links (dual-port CX4-Lx).

        Flows hash across ports, so one QP keeps in-order delivery while
        the NIC's aggregate bandwidth scales with the port count.
        """
        self.uplink = topology.attach(self.host_id, self)
        self.uplinks = [self.uplink]
        for nic_port in range(1, ports):
            self.uplinks.append(topology.attach_extra_port(
                self.host_id, self, nic_port))
            # Each port brings its own processing pipeline.
            self.sim.schedule(0, self._tx_run)

    def pause_port(self, port: int, pause: bool) -> None:
        if 0 <= port < len(self.uplinks):
            self.uplinks[port].set_paused(pause)

    def _uplink_for(self, flow_id: int) -> "EgressPort":
        """Port for a flow: pinned on first use to the least-loaded port
        (per-flow stickiness preserves ordering; balanced assignment uses
        both ports the way dual-port QP placement does).  Flow 0 is the
        control plane (rdma_cm, TCP), which stays on the primary port."""
        uplinks = self.uplinks
        if len(uplinks) <= 1 or not flow_id:
            return self.uplink
        index = self._flow_ports.get(flow_id)
        if index is None:
            counts = [0] * len(uplinks)
            for assigned in self._flow_ports.values():
                counts[assigned] += 1
            index = counts.index(min(counts))
            self._flow_ports[flow_id] = index
        return uplinks[index]

    def crash(self) -> None:
        """Stop responding entirely (machine failure, Sec. III robustness)."""
        self.alive = False

    # ------------------------------------------------------------ qp surface
    def register_qp(self, qp: QueuePair) -> None:
        qp.qpn = next(self._qpns)
        self.qps[qp.qpn] = qp

    def destroy_qp(self, qp: QueuePair) -> None:
        self.qps.pop(qp.qpn, None)
        self.limiters.pop(qp.qpn, None)
        self._flow_ports.pop((self.host_id << 20) | qp.qpn, None)

    def register_dc_target(self, target) -> None:
        target.dct_num = next(self._dct_numbers)
        self.dc_targets[target.dct_num] = target

    def _resolve_rx_qp(self, segment: Segment,
                       packet: RcPacket) -> Optional[QueuePair]:
        """Destination QP, demuxing DC traffic to a per-initiator responder."""
        qp = self.qps.get(packet.dst_qpn)
        if qp is not None:
            return qp
        target = self.dc_targets.get(packet.dst_qpn)
        if target is not None:
            return target._responder_for(segment.src, packet.src_qpn)
        return None

    def post_send(self, qp: QueuePair, wr: WorkRequest) -> None:
        """NIC half of post_send; verbs charges the host-side overhead."""
        qp.post_send(wr)
        self._kick_qp(qp)

    # ---------------------------------------------------------- tx machinery
    def _limiter(self, qpn: int) -> DcqcnRateLimiter:
        limiter = self.limiters.get(qpn)
        if limiter is None:
            bandwidth = (self.uplink.bandwidth_bps if self.uplink
                         else self.params.link_bandwidth_bps)
            limiter = DcqcnRateLimiter(self.sim, self.params, bandwidth)
            self.limiters[qpn] = limiter
        return limiter

    def _kick_qp(self, qp: QueuePair, front: bool = False) -> None:
        """Queue ``qp`` if it has anything to send; ``front`` keeps a
        half-sent WQE at the head of the engine (WQE-atomic transmit)."""
        if qp.current_tx is not None or qp.sq or qp.retx:
            self._enqueue_job(qp, front)

    def _enqueue_job(self, job: _TxJob, front: bool = False) -> None:
        if id(job) in self._in_ready:
            return
        self._in_ready.add(id(job))
        if front:
            self._ready.appendleft(job)
        else:
            self._ready.append(job)
        if self._tx_idle:
            self._tx_idle -= 1
            self.tx_wakes += 1
            self.sim.schedule(0, self._tx_run)

    def _tx_head(self, job: _TxJob) -> Optional[Tuple[int, int, int]]:
        """What ``job`` sends next: ``(qpn, fragment_bytes, wqe_bytes)``.

        ``wqe_bytes`` is the size of the WQE this fragment starts — what
        DCQCN admits and the WQE fetch is charged for — or 0 when the
        fragment continues a WQE already admitted.  None: nothing to send.
        """
        mtu = self.params.mtu_bytes
        if isinstance(job, _ReadJob):
            return (job.responder_qpn, min(mtu, job.length - job.sent),
                    0 if job.sent else max(job.length, CTRL_BYTES))
        msg = job.current_tx
        if msg is not None:
            wqe_bytes = 0
        elif job.retx:
            msg = job.retx[0]
            wqe_bytes = max(msg.wr.length, CTRL_BYTES)
        elif job.sq:
            wr = job.sq[0]
            return (job.qpn, CTRL_BYTES if wr.opcode is Opcode.READ
                    else min(mtu, max(wr.length, 0)),
                    max(wr.length, CTRL_BYTES))
        else:
            return None
        return (job.qpn, min(mtu, max(msg.wr.length - msg.sent_bytes, 0)),
                wqe_bytes)

    # The transmit engine is a callback machine, one per NIC port, all
    # serving the one ready queue.  An engine is either *idle* (counted in
    # ``_tx_idle``; ``_enqueue_job`` wakes it through a zero-delay entry,
    # never synchronously) or *busy*: exactly one bare entry of its own is
    # pending — its start, a wake, a back-pressure retry, or the occupancy
    # of the fragment it works on, which emits it and runs the engine on.
    def _tx_run(self, _arg: object) -> None:
        """Take jobs off the ready queue until one occupies the engine, the
        queue is empty (the engine idles), the port pushes back, or the
        NIC is dead.  ``_arg`` is the bare entry's argument, always None."""
        params = self.params
        sim = self.sim
        ready = self._ready
        in_ready = self._in_ready
        while True:
            if not self.alive:
                return
            if not ready:
                self._tx_idle += 1
                return
            job = ready.popleft()
            in_ready.discard(id(job))

            if isinstance(job, QueuePair):
                if job.state is not QpState.RTS:
                    continue
                if sim._now < job.tx_blocked_until:
                    sim.schedule(job.tx_blocked_until - sim._now,
                                 self._kick_qp, job)
                    continue
            head = self._tx_head(job)
            if head is None:
                continue
            qpn, nbytes, wqe_bytes = head

            # Per-port transmit-buffer back-pressure (also stalls under
            # PFC): requeue rather than hold, so an engine never blocks
            # traffic destined for the other port.
            out_port = self._uplink_for((self.host_id << 20) | qpn)
            if (out_port is not None
                    and out_port.queued_bytes >= _TX_BUFFER_BYTES):
                # Back of the queue: a blocked port must not starve work
                # bound for the other port (WQE fragment order is kept by
                # the per-QP cursor, not by queue position).
                self._enqueue_job(job, front=False)
                self.tx_wakes += 1
                sim.schedule(params.serialization_ns(params.mtu_bytes) // 2,
                             self._tx_run)
                return

            # DCQCN pacing is applied at *WQE boundaries*: once a work
            # request is admitted, its segments burst back-to-back (the
            # RNIC "ensures the completion of this request", Sec. V-C) and
            # the whole WQE's wire time is reserved from the limiter.
            # This is exactly why X-RDMA fragments large WRs: a 1 MB WQE
            # is a 1 MB line-rate burst no matter what DCQCN's rate says.
            if wqe_bytes:
                limiter = self._limiter(qpn)
                if params.dcqcn_enabled and limiter.next_tx_ns > sim._now:
                    self.dcqcn_deferrals += 1
                    sim.schedule(limiter.next_tx_ns - sim._now,
                                 self._enqueue_job, job)
                    continue
                limiter.reserve(wqe_bytes)
            break

        # Engine occupancy: per-segment work + host-memory DMA + the WQE
        # fetch when a fresh WQE starts + QP-context cache miss.
        dma = self._dma_cache.get(nbytes)
        if dma is None:
            dma = self._dma_cache[nbytes] = params.dma_ns(nbytes)
        occupancy = (params.nic_segment_process_ns + dma
                     + self._qp_cache_access(qpn))
        if wqe_bytes:
            occupancy += params.nic_wqe_fetch_ns
        sim.schedule(occupancy, self._on_occupied, (job, out_port))

    def _on_occupied(self, work: Tuple[_TxJob, "EgressPort"]) -> None:
        """The engine's work on one fragment is done: emit it on the port
        resolved when the work began, then take the next job."""
        job, port = work
        if isinstance(job, QueuePair):
            self._emit_qp_fragment(job, port)
        else:
            self._emit_read_fragment(job, port)
        self._tx_run(None)

    def _emit_qp_fragment(self, qp: QueuePair, port: "EgressPort") -> None:
        params = self.params
        msg = qp.current_tx
        if msg is None:
            if qp.retx:
                msg = qp.retx.popleft()
                msg.sent_at = self.sim.now
                qp.current_tx = msg
            elif qp.sq:
                wr = qp.sq.popleft()
                msg = OutboundMessage(wr, next(qp.msg_ids), sent_at=self.sim.now)
                if wr.opcode is Opcode.READ:
                    self._emit_read_request(qp, msg, port)
                    self.tx_fragments += 1
                    self._kick_qp(qp)
                    return
                nfrags = max(1, params.segments_of(wr.length))
                msg.first_psn = qp.send_psn
                msg.last_psn = qp.send_psn + nfrags - 1
                qp.send_psn += nfrags
                qp.current_tx = msg
                qp.outstanding.append(msg)
                self._arm_watchdog(qp)
            else:
                return
        if msg.acked:           # late ack raced a rewind; nothing to resend
            qp.current_tx = None
            self._kick_qp(qp)
            return

        wr = msg.wr
        offset = msg.sent_bytes
        frag_len = min(params.mtu_bytes, max(wr.length - offset, 0))
        frag_index = offset // params.mtu_bytes if wr.length else 0
        # Positional: RcPacket(kind, src_qpn, dst_qpn, psn, msg_id,
        # opcode, offset, length, total_length, first, last, remote_addr,
        # rkey, imm_data, ack_psn, app_payload) — once per fragment.
        packet = RcPacket(
            RcKind.DATA, qp.qpn, qp.remote_qpn or 0,
            msg.first_psn + frag_index, msg.msg_id, wr.opcode, offset,
            frag_len, wr.length, offset == 0,
            offset + frag_len >= wr.length, wr.remote_addr + offset,
            wr.rkey, wr.imm_data, -1, wr.payload if offset == 0 else None)
        if offset == 0:
            trace = getattr(wr.payload, "trace", None)
            if trace is not None:
                trace.mark("nic_tx")
        self._send_segment(qp.remote_host, frag_len, SegmentKind.DATA,
                           qp.qpn, packet, port)
        self.tx_fragments += 1
        msg.sent_bytes = offset + max(frag_len, 1)
        if msg.fully_sent:
            msg.sent_at = self.sim.now
            qp.current_tx = None
            self._kick_qp(qp)
        else:
            self._kick_qp(qp, front=True)

    def _emit_read_request(self, qp: QueuePair, msg: OutboundMessage,
                           port: Optional["EgressPort"] = None) -> None:
        wr = msg.wr
        qp.reads_in_flight[msg.msg_id] = msg
        msg.sent_bytes = max(wr.length, 1)
        msg.sent_at = self.sim.now
        self._arm_watchdog(qp)
        packet = RcPacket(
            kind=RcKind.READ_REQ,
            src_qpn=qp.qpn,
            dst_qpn=qp.remote_qpn or 0,
            msg_id=msg.msg_id,
            length=wr.length,
            total_length=wr.length,
            remote_addr=wr.remote_addr,
            rkey=wr.rkey,
        )
        self._send_segment(qp.remote_host, CTRL_BYTES, SegmentKind.DATA,
                           qp.qpn, packet, port)

    def _emit_read_fragment(self, job: _ReadJob, port: "EgressPort") -> None:
        frag_len = min(self.params.mtu_bytes, job.length - job.sent)
        # Positional, as in _emit_qp_fragment: once per response fragment.
        packet = RcPacket(
            RcKind.READ_RESP, job.responder_qpn, job.requester_qpn, 0,
            job.msg_id, None, job.sent, frag_len, job.length, job.sent == 0,
            job.sent + frag_len >= job.length)
        self._send_segment(job.requester_host, frag_len, SegmentKind.DATA,
                           job.responder_qpn, packet, port)
        self.tx_fragments += 1
        job.sent += frag_len
        if job.sent < job.length:
            self._enqueue_job(job, front=True)    # WQE-atomic continuation

    def _send_segment(self, dst_host: Optional[int], size: int,
                      kind: SegmentKind, local_qpn: int, payload,
                      port: Optional["EgressPort"] = None) -> None:
        """One RC packet on ``local_qpn``'s flow.  Data fragments get here
        through the engine queue, with the port it resolved; ACK/NAK/CNP
        replies call it straight from the receive path, bypassing
        pacing."""
        if dst_host is None:
            raise RuntimeError(f"{self.name}: QP has no peer configured")
        # Positional: Segment(src, dst, size, kind, flow_id, ecn_marked,
        # payload) — once per RC packet.
        self.transmit(Segment(
            self.host_id, dst_host, size, kind,
            (self.host_id << 20) | local_qpn, False, payload), port)

    def transmit(self, segment: Segment,
                 port: Optional["EgressPort"] = None) -> None:
        """The host's one egress: RC traffic, rdma_cm and the TCP stack
        all put their segments on the wire here, so ``segments_sent``
        counts every one and ``segments_sent == segments_delivered +
        drops`` holds whenever the fabric is quiet.  ``port`` is the
        flow's uplink when the caller has already resolved it."""
        if self.uplink is None:
            raise RuntimeError(f"{self.name} is not plugged into a fabric")
        self.stats.segments_sent += 1
        if segment.dst == self.host_id:
            # Loopback: hairpin at the NIC without touching the fabric.
            self.sim.call_after(self.params.nic_ack_delay_ns,
                                lambda: self.receive(segment, 0))
        else:
            if port is None:
                port = self._uplink_for(segment.flow_id)
            port.enqueue(segment)

    # ------------------------------------------------------------- watchdogs
    def _arm_watchdog(self, qp: QueuePair) -> None:
        if qp.qpn in self._watchdogs:
            return
        self._watchdogs.add(qp.qpn)
        self.sim.spawn(self._watchdog_loop(qp), name=f"{self.name}:wd{qp.qpn}")

    def _watchdog_loop(self, qp: QueuePair):
        params = self.params
        try:
            while self.alive and qp.state is QpState.RTS and (
                    qp.outstanding or qp.reads_in_flight):
                oldest = None
                if qp.outstanding:
                    oldest = qp.outstanding[0]
                for read_msg in qp.reads_in_flight.values():
                    if oldest is None or read_msg.sent_at < oldest.sent_at:
                        oldest = read_msg
                backoff = 1 << min(oldest.retries, 4)
                deadline = oldest.sent_at + params.rc_retransmit_timeout_ns * backoff
                if self.sim.now < deadline:
                    yield self.sim.timeout(deadline - self.sim.now)
                    continue
                if oldest.acked:
                    continue
                # Only fire for fully-transmitted messages; mid-transmit
                # progress resets the clock via sent_at updates.
                if not oldest.fully_sent:
                    yield self.sim.timeout(params.rc_retransmit_timeout_ns)
                    continue
                oldest.retries += 1
                if oldest.retries > params.rc_max_retries:
                    self._qp_fatal(qp, WrStatus.RETRY_EXCEEDED)
                    return
                self.stats.retransmissions += 1
                if oldest.wr.opcode is Opcode.READ:
                    # Re-issue the lost READ_REQ; responder streaming is
                    # idempotent, so the response restarts from byte 0.
                    self._emit_read_request(qp, oldest)
                else:
                    self._rewind(qp)
                oldest.sent_at = self.sim.now
                self._kick_qp(qp)
        finally:
            self._watchdogs.discard(qp.qpn)

    def _rewind(self, qp: QueuePair) -> None:
        """Go-back-N: schedule every unacked data message for resend."""
        qp.last_rewind_ns = self.sim.now
        qp.retx = deque(m for m in qp.outstanding if not m.acked)
        for msg in qp.retx:
            msg.sent_bytes = 0
        qp.current_tx = None

    # -------------------------------------------------------------- rx path
    def receive(self, segment: Segment, in_port: int) -> None:
        if not self.alive:
            return
        stats = self.stats
        stats.segments_delivered += 1
        stats.bytes_delivered += segment.size
        if segment.kind is SegmentKind.CNP:
            limiter = self.limiters.get(segment.payload)
            if limiter is not None:
                limiter.on_cnp()
            return
        if segment.kind is SegmentKind.CONTROL:
            handler = self.control_handlers.get(
                getattr(segment.payload, "port", 0))
            if handler is not None:
                handler(segment)
            return
        packet: RcPacket = segment.payload
        if segment.ecn_marked and self.cnp_governor.should_send_cnp(
                segment.flow_id):
            self.stats.cnps_sent += 1
            self._send_segment(segment.src, CTRL_BYTES, SegmentKind.CNP,
                               packet.dst_qpn, packet.src_qpn)
        if packet.kind is RcKind.DATA:
            self.stats.data_bytes_delivered += packet.length
            self._rx_data(segment, packet)
        elif packet.kind is RcKind.READ_REQ:
            self._rx_read_request(segment, packet)
        elif packet.kind is RcKind.READ_RESP:
            self.stats.data_bytes_delivered += packet.length
            self._rx_read_response(packet)
        elif packet.kind is RcKind.ACK:
            self._rx_ack(packet)
        elif packet.kind in (RcKind.NAK_SEQ, RcKind.NAK_RNR,
                             RcKind.NAK_ACCESS):
            self._rx_nak(packet)

    # -- receiver side ------------------------------------------------------
    def _rx_data(self, segment: Segment, packet: RcPacket) -> None:
        qp = self._resolve_rx_qp(segment, packet)
        if qp is None or qp.state not in (QpState.RTR, QpState.RTS):
            return  # silently dropped; sender will time out
        if packet.psn < qp.expected_psn:
            # Duplicate from a spurious rewind: re-ack so the sender moves on.
            self._ack(qp, packet.src_qpn, segment.src, qp.expected_psn - 1)
            return
        if packet.psn > qp.expected_psn:
            if qp.last_nak_expected != qp.expected_psn:
                qp.last_nak_expected = qp.expected_psn
                self._nak(segment, packet, RcKind.NAK_SEQ,
                          qp.expected_psn, qp.expected_psn - 1)
            return

        # In-order fragment.
        if packet.first:
            if not self._begin_inbound(qp, segment, packet):
                return  # RNR or access NAK already sent; psn not advanced
        msg = qp.rx_msg
        if msg is None or msg.msg_id != packet.msg_id:
            # First fragment was refused earlier (e.g. RNR) — ignore the rest.
            return
        qp.expected_psn = packet.psn + 1
        qp.last_nak_expected = -1
        msg.received = packet.offset + packet.length
        if packet.last:
            qp.rx_msg = None
            self._complete_inbound(qp, segment, packet, msg)

    def _begin_inbound(self, qp: QueuePair, segment: Segment,
                       packet: RcPacket) -> bool:
        opcode = packet.opcode
        if opcode in (Opcode.SEND, Opcode.SEND_IMM):
            recv_wr = qp.pop_recv()
            if recv_wr is None:
                self.stats.rnr_naks += 1
                self._nak(segment, packet, RcKind.NAK_RNR,
                          packet.psn, qp.expected_psn - 1)
                return False
            if recv_wr.length < packet.total_length:
                self._nak(segment, packet, RcKind.NAK_ACCESS,
                          packet.psn, qp.expected_psn - 1)
                self._qp_fatal(qp, WrStatus.LOCAL_PROTECTION_ERROR)
                return False
            qp.rx_msg = InboundMessage(
                msg_id=packet.msg_id, opcode=opcode,
                total_length=packet.total_length, recv_wr=recv_wr,
                app_payload=packet.app_payload)
            return True

        # WRITE / WRITE_IMM: zero-byte writes skip the rkey check entirely
        # (the keepAlive probe relies on this, Sec. V-A).
        if packet.total_length > 0:
            mr = self.mr_table.check(packet.rkey, packet.remote_addr,
                                     packet.total_length - packet.offset,
                                     write=True)
            if mr is None:
                self._nak(segment, packet, RcKind.NAK_ACCESS,
                          packet.psn, qp.expected_psn - 1)
                self._qp_fatal(qp, WrStatus.REMOTE_ACCESS_ERROR)
                return False
        qp.rx_msg = InboundMessage(
            msg_id=packet.msg_id, opcode=opcode,
            total_length=packet.total_length,
            write_addr=packet.remote_addr, imm_data=packet.imm_data,
            app_payload=packet.app_payload)
        return True

    def _complete_inbound(self, qp: QueuePair, segment: Segment,
                          packet: RcPacket, msg: InboundMessage) -> None:
        trace = getattr(msg.app_payload, "trace", None)
        if trace is not None:
            # CQE + DMA delay land in the poll-pickup span, where the
            # receiving software actually waits them out.
            trace.mark("rx_nic")
        self._ack(qp, packet.src_qpn, segment.src, packet.psn)
        delay = self.params.nic_cqe_ns + self.params.dma_ns(
            min(packet.length, self.params.mtu_bytes))
        if msg.opcode in (Opcode.SEND, Opcode.SEND_IMM):
            recv_wr = msg.recv_wr
            completion = Completion(
                wr_id=recv_wr.wr_id, status=WrStatus.SUCCESS,
                opcode=(Opcode.RECV_IMM if packet.imm_data is not None
                        else Opcode.RECV),
                qp_num=qp.qpn, byte_len=msg.total_length,
                imm_data=packet.imm_data, addr=recv_wr.local_addr,
                payload=msg.app_payload)
            self.sim.schedule(delay, qp.recv_cq.push, completion)
        elif msg.opcode is Opcode.WRITE_IMM:
            recv_wr = qp.pop_recv()
            if recv_wr is None:
                # WRITE_IMM consumes a receive; none posted is an RNR case
                # at message end (rare; treat as silent drop + RNR count).
                self.stats.rnr_naks += 1
                return
            completion = Completion(
                wr_id=recv_wr.wr_id, status=WrStatus.SUCCESS,
                opcode=Opcode.RECV_IMM, qp_num=qp.qpn,
                byte_len=msg.total_length, imm_data=packet.imm_data,
                addr=msg.write_addr, payload=msg.app_payload)
            self.sim.schedule(delay, qp.recv_cq.push, completion)
        # Plain WRITE: silent at the receiver (memory semantics).

    def _ack(self, qp: QueuePair, remote_qpn: int, remote_host: int,
             ack_psn: int) -> None:
        self._send_segment(
            remote_host, CTRL_BYTES, SegmentKind.ACK, qp.qpn,
            RcPacket(kind=RcKind.ACK, src_qpn=qp.qpn, dst_qpn=remote_qpn,
                     ack_psn=ack_psn))

    def _nak(self, segment: Segment, packet: RcPacket, kind: RcKind,
             psn: int, ack_psn: int) -> None:
        """Refuse ``packet``: the QPN it addressed answers its sender."""
        self._send_segment(
            segment.src, CTRL_BYTES, SegmentKind.ACK, packet.dst_qpn,
            RcPacket(kind=kind, src_qpn=packet.dst_qpn,
                     dst_qpn=packet.src_qpn, psn=psn, msg_id=packet.msg_id,
                     ack_psn=ack_psn))

    def _rx_read_request(self, segment: Segment, packet: RcPacket) -> None:
        qp = self._resolve_rx_qp(segment, packet)
        if qp is None or qp.state not in (QpState.RTR, QpState.RTS):
            return
        mr = self.mr_table.check(packet.rkey, packet.remote_addr,
                                 packet.length, write=False)
        if mr is None and packet.length > 0:
            self._nak(segment, packet, RcKind.NAK_ACCESS, packet.psn, -1)
            return
        job = _ReadJob(
            requester_host=segment.src, requester_qpn=packet.src_qpn,
            responder_qpn=packet.dst_qpn, msg_id=packet.msg_id,
            addr=packet.remote_addr, length=max(packet.length, 0))
        if job.length == 0:
            # Zero-byte read: respond immediately with an empty last fragment.
            self._send_segment(
                segment.src, CTRL_BYTES, SegmentKind.ACK, packet.dst_qpn,
                RcPacket(kind=RcKind.READ_RESP, src_qpn=packet.dst_qpn,
                         dst_qpn=packet.src_qpn, msg_id=packet.msg_id,
                         first=True, last=True))
            return
        self._enqueue_job(job)

    # -- requester side -----------------------------------------------------
    def _rx_read_response(self, packet: RcPacket) -> None:
        qp = self.qps.get(packet.dst_qpn)
        if qp is None:
            return
        msg = qp.reads_in_flight.get(packet.msg_id)
        if msg is None or msg.acked:
            return
        if packet.last:
            msg.acked = True
            del qp.reads_in_flight[packet.msg_id]
            if msg.wr.signaled:
                delay = self.params.nic_cqe_ns + self.params.dma_ns(
                    min(packet.length, self.params.mtu_bytes))
                completion = Completion(
                    wr_id=msg.wr.wr_id, status=WrStatus.SUCCESS,
                    opcode=Opcode.READ, qp_num=qp.qpn,
                    byte_len=msg.wr.length)
                self.sim.schedule(delay, qp.send_cq.push, completion)

    def _rx_ack(self, packet: RcPacket) -> None:
        qp = self.qps.get(packet.dst_qpn)
        if qp is None:
            return
        self._apply_cumulative_ack(qp, packet.ack_psn)

    def _apply_cumulative_ack(self, qp: QueuePair, ack_psn: int) -> None:
        while qp.outstanding and qp.outstanding[0].last_psn <= ack_psn:
            msg = qp.outstanding.popleft()
            if msg.acked:
                continue
            msg.acked = True
            if msg.wr.signaled:
                completion = Completion(
                    wr_id=msg.wr.wr_id, status=WrStatus.SUCCESS,
                    opcode=msg.wr.opcode, qp_num=qp.qpn,
                    byte_len=msg.wr.length)
                self.sim.schedule(self.params.nic_cqe_ns, qp.send_cq.push,
                                  completion)
        if qp.retx:
            qp.retx = deque(m for m in qp.retx if not m.acked)
        if qp.current_tx is not None and qp.current_tx.acked:
            qp.current_tx = None

    def _rx_nak(self, packet: RcPacket) -> None:
        qp = self.qps.get(packet.dst_qpn)
        if qp is None or qp.state is not QpState.RTS:
            return
        if packet.ack_psn >= 0:
            self._apply_cumulative_ack(qp, packet.ack_psn)
        if packet.kind is RcKind.NAK_ACCESS:
            self._qp_fatal(qp, WrStatus.REMOTE_ACCESS_ERROR)
            return
        if packet.kind is RcKind.NAK_RNR:
            head = next((m for m in qp.outstanding if not m.acked), None)
            if head is None:
                return
            head.rnr_retries += 1
            if head.rnr_retries > self.params.rc_max_retries:
                self._qp_fatal(qp, WrStatus.RNR_RETRY_EXCEEDED)
                return
            qp.tx_blocked_until = self.sim.now + self.params.rc_rnr_retry_delay_ns
            self._rewind(qp)
            self.sim.schedule(self.params.rc_rnr_retry_delay_ns,
                              self._kick_qp, qp)
            return
        # NAK_SEQ: rewind unless we just did (spurious duplicate guard).
        if self.sim.now - qp.last_rewind_ns < self.params.rc_retransmit_timeout_ns // 4:
            return
        self.stats.retransmissions += 1
        self._rewind(qp)
        self._kick_qp(qp)

    # ---------------------------------------------------------------- errors
    def _qp_fatal(self, qp: QueuePair, status: WrStatus) -> None:
        """Move the QP to ERROR and flush every queued WR with an error CQE."""
        if qp.state is QpState.ERROR:
            return
        qp.state = QpState.ERROR
        first = True
        flushed = []
        if qp.current_tx is not None and not qp.current_tx.acked:
            flushed.append(qp.current_tx.wr)
        for msg in qp.outstanding:
            if not msg.acked and (qp.current_tx is None
                                  or msg is not qp.current_tx):
                flushed.append(msg.wr)
        flushed.extend(m.wr for m in qp.reads_in_flight.values())
        flushed.extend(qp.sq)
        seen = set()
        for wr in flushed:
            if id(wr) in seen:
                continue
            seen.add(id(wr))
            wr_status = status if first else WrStatus.WR_FLUSH_ERROR
            first = False
            qp.send_cq.push(Completion(
                wr_id=wr.wr_id, status=wr_status, opcode=wr.opcode,
                qp_num=qp.qpn))
        for wr in qp.rq:
            qp.recv_cq.push(Completion(
                wr_id=wr.wr_id, status=WrStatus.WR_FLUSH_ERROR,
                opcode=Opcode.RECV, qp_num=qp.qpn))
        qp.sq.clear()
        qp.rq.clear()
        qp.outstanding.clear()
        qp.retx.clear()
        qp.reads_in_flight.clear()
        qp.current_tx = None

    # ------------------------------------------------------------- qp cache
    def _qp_cache_access(self, qpn: int) -> int:
        """LRU touch; returns the miss penalty in ns (0 on hit)."""
        cache = self._qp_cache
        if qpn in cache:
            cache.move_to_end(qpn)
            self.cache_hits += 1
            return 0
        self.cache_misses += 1
        cache[qpn] = True
        if len(cache) > self.params.nic_qp_cache_entries:
            cache.popitem(last=False)
        return self.params.nic_qp_cache_miss_ns
