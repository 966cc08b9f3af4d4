"""The X-RDMA context: one per thread, run-to-complete (Sec. IV-B).

The context owns every per-thread resource — PD, CQs, memory cache, QP
cache, timers, channels — so the data path needs no locks or atomics.  One
simulation process (:meth:`XrdmaContext._run`) drives everything:

* drains both CQs and routes completions to channels,
* pumps channel send queues as window/flow-control slots open,
* runs the timer duties (keepAlive probes, deadlock NOPs, memory-cache
  shrink, monitor sampling),
* models **hybrid polling**: while traffic is flowing the loop busy-polls
  (low latency); after an idle period it parks on events and pays the
  epoll wakeup cost on the next message.

The Table-I API surface lives here: ``send_msg``, ``polling``,
``get_event_fd``, ``process_event``, ``reg_mem``/``dereg_mem``,
``set_flag`` and ``trace_request``.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.ctrlplane import QpCache
from repro.rnic.qp import QpState
from repro.rnic.wqe import Completion, Opcode, WorkRequest, WrStatus
from repro.sim.events import Event, Timeout
from repro.sim.process import ProcessGenerator
from repro.sim.resources import Store
from repro.sim.timeunits import SECONDS
from repro.verbs.cm import ConnectError
from repro.xrdma.channel import (ChannelBroken, ChannelState, XrdmaChannel,
                                 _WrRoute)
from repro.xrdma.config import XrdmaConfig
from repro.xrdma.flowctl import WrBudget
from repro.xrdma.memcache import MemCache
from repro.xrdma.message import MessageKind, XrdmaMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.rnic.nic import Rnic
    from repro.rnic.qp import QueuePair
    from repro.sim.engine import Simulator
    from repro.verbs.api import VerbsContext
    from repro.verbs.cm import CmAgent, CmConnection, CmListener
    from repro.xrdma.memcache import RdmaBuffer

#: Idle time after which the loop leaves busy-polling for event mode.
_BUSY_POLL_WINDOW_NS = 100_000
#: Memory-cache shrink cadence.
_SHRINK_INTV_NS = 1 * SECONDS


class XrdmaContext:
    """Per-thread engine and the public X-RDMA API."""

    def __init__(self, sim: "Simulator", verbs: "VerbsContext",
                 cm: "CmAgent", config: Optional[XrdmaConfig] = None,
                 name: str = "") -> None:
        self.sim = sim
        self.verbs = verbs
        self.cm = cm
        self.nic = verbs.nic
        self.params = verbs.params
        self.config = config or XrdmaConfig()
        self.ctx_id = sim.next_id("ctx")
        self.name = name or f"xrdma{self.ctx_id}"

        self.pd = verbs.alloc_pd()
        self.send_cq = verbs.create_cq(self.config.cq_size)
        self.recv_cq = verbs.create_cq(self.config.cq_size)
        self.srq = (verbs.create_srq(self.config.srq_size)
                    if self.config.use_srq else None)
        self.memcache = MemCache(
            verbs, self.pd, mr_bytes=self.config.memcache_mr_bytes,
            no_pin=self.config.memcache_no_pin)
        self.qpcache = QpCache(verbs, self.pd, self.send_cq, self.recv_cq,
                               capacity=self.config.qp_cache_capacity)
        self.wr_budget = WrBudget(self.config.context_outstanding_wrs)
        self.connect_failures = 0    #: ConnectError paths (QP recycled)
        self.drain_timeouts = 0      #: close drains that hit the deadline

        self.channels: Dict[int, XrdmaChannel] = {}          # by qpn
        self._wr_ids = itertools.count(1)
        self._wr_routes: Dict[int, Tuple[XrdmaChannel, _WrRoute]] = {}
        self._recv_buffers: Dict[int, Tuple[XrdmaChannel, Any]] = {}
        self.incoming: Store = Store(sim, name=f"{self.name}:incoming")
        self.accepted: Store = Store(sim, name=f"{self.name}:accepted")
        self._listeners: List["CmListener"] = []
        self._kicked: deque = deque()
        self._kicked_set: set = set()
        self._wake = None
        #: the one pending keepalive/deadlock/shrink deadline timer
        self._deadline_timer: Optional[Timeout] = None
        self._stopped = False
        self._started = False
        self._injected_stall_ns = 0
        self.tracer = None          #: analysis hook (repro.analysis.Tracer)
        self.monitor = None         #: analysis hook (repro.analysis.Monitor)
        self.filter = None          #: fault injection (repro.analysis.Filter)
        self.poll_gaps: List[int] = []       #: gaps over the warn threshold
        self._last_round_ns = sim.now
        self._idle_since: Optional[int] = None
        self.broken_channels = 0

    # ============================================================ lifecycle
    def start(self) -> None:
        """Spawn the run-to-complete loop (idempotent)."""
        if self._started:
            return
        self._started = True
        self.sim.spawn(self._run(), name=f"{self.name}:loop")

    def stop(self) -> None:
        """Shut the run-to-complete loop down at its next iteration.

        Every port this context listens on is withdrawn — a later REQ gets
        REJ, so the peer's ``connect`` fails instead of handing back a
        channel nobody polls — and each parked accept loop is woken to end.
        """
        self._stopped = True
        for listener in self._listeners:
            self.cm.unlisten(listener)
            listener.accepted.put_nowait(None)
        self._listeners.clear()
        self.kick()

    # ====================================================== connection mgmt
    def connect(self, remote_host: int, service_port: int,
                timeout_ns: int = 2 * SECONDS) -> ProcessGenerator:
        """Generator: establish a channel (QP cache fast path when warm).

        Every failed establishment returns the QP the attempt was
        holding — recycled *or* freshly created by the CM — to the QP
        cache, so a connect storm against a dead peer leaks nothing.  A
        channel that breaks while its receive buffers are being primed
        raises :class:`ChannelBroken`; ``mark_broken`` has already
        released everything it held.
        """
        self.start()
        setup = (self.tracer.begin_setup(remote_host, service_port)
                 if self.tracer is not None else None)
        recycled = self.qpcache.get()
        try:
            conn = yield from self.cm.connect(
                remote_host, service_port, self.pd, self.send_cq,
                self.recv_cq, qp=recycled, srq=self.srq,
                private_data={"window": self.config.inflight_depth},
                timeout_ns=timeout_ns, setup_trace=setup)
        except ConnectError as exc:
            self.connect_failures += 1
            if exc.qp is not None:
                yield from self.qpcache.put(exc.qp)
            raise
        channel = self._new_channel(conn)
        yield from self._prime_channel(channel, setup)
        if channel.state is not ChannelState.READY:
            raise ChannelBroken(
                f"channel {channel.channel_id} to host {remote_host}: "
                f"broke while priming")
        self.channels[conn.qp.qpn] = channel
        if setup is not None:
            self.tracer.finalize_setup(setup)
        return channel

    def listen(self, service_port: int) -> Store:
        """Accept channels on ``service_port``; they appear in the returned
        Store (which is also ``self.accepted``)."""
        self.start()
        listener = self.cm.listen(
            service_port, self.pd, self.send_cq, self.recv_cq, srq=self.srq,
            qp_provider=self.qpcache.get,
            private_data={"window": self.config.inflight_depth})
        self._listeners.append(listener)
        self.sim.spawn(self._accept_loop(listener),
                       name=f"{self.name}:accept{service_port}")
        return self.accepted

    def _accept_loop(self, listener: "CmListener") -> ProcessGenerator:
        while not self._stopped:
            conn = yield listener.accepted.get()
            if conn is None:            # stop() withdrew the listener
                return
            channel = self._new_channel(conn)
            yield from self._prime_channel(channel)
            if channel.state is not ChannelState.READY:
                continue        # broke while priming: already released
            self.channels[conn.qp.qpn] = channel
            self.accepted.put_nowait(channel)

    def _new_channel(self, conn: "CmConnection") -> XrdmaChannel:
        """Either end of an established connection: the smaller of the
        two ``inflight_depth`` offers is the channel's window."""
        peer_window = (conn.private_data or {}).get(
            "window", self.config.inflight_depth)
        return XrdmaChannel(
            self, conn, min(self.config.inflight_depth, peer_window))

    def _prime_channel(self, channel: XrdmaChannel,
                       setup_trace=None) -> ProcessGenerator:
        """Pre-post window-depth receive buffers (the RNR-free invariant).

        With an SRQ, buffers are shared and capped at the SRQ depth — this
        is precisely how SRQ re-introduces the RNR risk (Sec. VII-F).

        The ``mr_reg`` setup span closes after the *first* allocation:
        arena growth (the MR registration) is the only yield inside
        ``memcache.alloc``, so cold establishment shows the full
        registration cost there and a warm memory cache shows exactly 0.
        The alloc/post interleaving below is digest-pinned — marks are
        timestamps only, never a restructuring.
        """
        recv_bytes = self.config.small_msg_size + 64
        count = channel.window.depth + self.config.prepost_slack
        if self.srq is not None:
            count = min(count, self.srq.depth - len(self.srq))
        first = True
        for _ in range(count):
            buffer = yield from self.memcache.alloc(recv_bytes)
            if channel.state is not ChannelState.READY:
                # The channel died during the alloc yield: mark_broken
                # already swept _recv_buffers, so installing this buffer
                # would leak it onto a dead channel.
                self.memcache.free(buffer)
                return
            if first and setup_trace is not None:
                setup_trace.mark("mr_reg")
            first = False
            channel._recv_buffers.append(buffer)
            posted = self._post_recv(channel, buffer)
            if posted is not None:
                yield posted
        if setup_trace is not None:
            if first:           # zero-buffer prime (saturated SRQ)
                setup_trace.mark("mr_reg")
            setup_trace.mark("recv_prime")

    def _post_recv(self, channel: XrdmaChannel,
                   buffer: "RdmaBuffer") -> Optional[Event]:
        """Post ``buffer`` for receives; returns the verbs call to wait
        on, or None when the shared pool is full (the buffer stays with
        the channel).  A plain function: the caller yields the call."""
        wr = WorkRequest(opcode=Opcode.RECV, length=buffer.size,
                         local_addr=buffer.addr, wr_id=next(self._wr_ids))
        if self.srq is not None:
            if len(self.srq) >= self.srq.depth:
                return None
            self._recv_buffers[wr.wr_id] = (channel, buffer)
            return self.verbs.post_srq_recv(self.srq, wr)
        self._recv_buffers[wr.wr_id] = (channel, buffer)
        return self.verbs.post_recv(channel.qp, wr)

    def close_channel(self, channel: XrdmaChannel,
                      notify: bool = True) -> ProcessGenerator:
        """Generator: orderly shutdown — the QP goes back to the cache.

        The drain is bounded by ``close_drain_timeout_ns``: a wedged QP
        (stuck WQE, dead peer mid-teardown) escalates to ERROR + destroy
        instead of spinning the closer forever.
        """
        if channel.state is not ChannelState.READY:
            return
        drain_timed_out = False
        if notify:
            yield from channel.send_control(MessageKind.CLOSE)
            # Drain the QP before resetting it, or the CLOSE never leaves.
            qp = channel.qp
            deadline = self.sim.now + self.config.close_drain_timeout_ns
            while qp.sq or qp.outstanding or qp.current_tx is not None:
                if self.sim.now >= deadline:
                    drain_timed_out = True
                    self.drain_timeouts += 1
                    break
                yield self.sim.timeout(10_000)
        if channel.state is not ChannelState.READY:
            # A concurrent closer (or on_channel_broken) won the race while
            # this process was suspended in the drain — without this
            # re-check both closers would recycle the same QP.
            return
        channel.state = ChannelState.CLOSED
        channel.protocol.release()
        self.channels.pop(channel.qp.qpn, None)
        while channel._recv_buffers:
            self.memcache.free(channel._recv_buffers.popleft())
        if drain_timed_out:
            # A QP that would not drain cannot be trusted for reuse:
            # flush its work through ERROR, then destroy it outright.
            if channel.qp.state is not QpState.ERROR:
                yield self.verbs.modify_qp(channel.qp, QpState.ERROR)
            yield self.verbs.destroy_qp(channel.qp)
        elif channel.qp.state is not QpState.ERROR:
            yield from self.qpcache.put(channel.qp)
        else:
            yield self.verbs.destroy_qp(channel.qp)

    def on_channel_broken(self, channel: XrdmaChannel) -> None:
        """Channel-side callback: release the context's references."""
        self.broken_channels += 1
        self.channels.pop(channel.qp.qpn, None)
        # An errored QP cannot be recycled; destroy it asynchronously.
        self.sim.spawn(self._destroy_qp(channel.qp),
                       name=f"{self.name}:destroy")
        # drop_all() just returned the dead channel's budget slots; hand
        # them to waiting channels now — their own completions may never
        # come (all of their work could be queued behind the budget).
        self.sim.spawn(self._drain_budget(), name=f"{self.name}:drain")

    def _destroy_qp(self, qp: "QueuePair") -> ProcessGenerator:
        yield self.verbs.destroy_qp(qp)

    def _drain_budget(self) -> ProcessGenerator:
        yield self.sim.timeout(0)   # let mark_broken unwind first
        yield from self.wr_budget.drain()

    # ============================================================= Table I
    def send_msg(self, channel: XrdmaChannel, payload_size: int,
                 kind: MessageKind = MessageKind.ONEWAY,
                 payload: Any = None,
                 request_msg_id: int = 0) -> XrdmaMessage:
        """xrdma_send_msg: queue a message; completion via its events."""
        msg = XrdmaMessage(kind=kind, payload_size=payload_size,
                           payload=payload, request_msg_id=request_msg_id)
        channel.queue_message(msg)
        if channel.channel_id not in self._kicked_set:
            self._kicked.append(channel)
            self._kicked_set.add(channel.channel_id)
        self.kick()
        return msg

    def send_request(self, channel: XrdmaChannel, payload_size: int,
                     payload: Any = None) -> XrdmaMessage:
        """Built-in RPC: returns a message whose ``response`` event fires."""
        return self.send_msg(channel, payload_size,
                             kind=MessageKind.REQUEST, payload=payload)

    def send_response(self, request: XrdmaMessage, payload_size: int,
                      payload: Any = None) -> XrdmaMessage:
        """Reply to a delivered REQUEST (Read-replaces-Write when large)."""
        if request.kind is not MessageKind.REQUEST or request.channel is None:
            raise ValueError("send_response needs a delivered REQUEST")
        return self.send_msg(request.channel, payload_size,
                             kind=MessageKind.RESPONSE, payload=payload,
                             request_msg_id=request.header.msg_id)

    def polling(self, max_messages: int = 16) -> List[XrdmaMessage]:
        """xrdma_polling: drain up to ``max_messages`` delivered messages."""
        out: List[XrdmaMessage] = []
        while self.incoming.items and len(out) < max_messages:
            out.append(self.incoming.get_nowait())
        return out

    def get_event_fd(self) -> Store:
        """xrdma_get_event_fd: a waitable handle (yield ``fd.get()``)."""
        return self.incoming

    def process_event(self, max_messages: int = 16) -> List[XrdmaMessage]:
        """xrdma_process_event: handle events after an fd wakeup."""
        return self.polling(max_messages)

    def reg_mem(self, size: int) -> ProcessGenerator:
        """xrdma_reg_mem (generator): RDMA-enabled buffer from the cache."""
        buffer = yield from self.memcache.alloc(size)
        return buffer

    def dereg_mem(self, buffer: "RdmaBuffer") -> None:
        """xrdma_dereg_mem: return a buffer to the cache."""
        self.memcache.free(buffer)

    def set_flag(self, name: str, value: Any) -> None:
        """xrdma_set_flag: dynamic (online) configuration change."""
        self.config.set_flag(name, value, running=self._started)
        if name == "flow_control":
            for channel in self.channels.values():
                channel.flow.enabled = bool(value)
        self.kick()  # wake the loop so new intervals take effect promptly

    def trace_request(self, msg: XrdmaMessage) -> Optional[Any]:
        """xrdma_trace_request: tracing record for a message (req-rsp mode)."""
        if self.tracer is None:
            return None
        return self.tracer.trace_request(msg)

    def local_time(self) -> int:
        """This host's wall clock (skewed unless clock-synced; Sec. VI-A)."""
        if self.tracer is not None:
            return self.tracer.clock.read(self.sim.now)
        return self.sim.now

    # ============================================================== engine
    def kick(self) -> None:
        # Clearing ``_wake`` is what makes a second kick a no-op.
        wake = self._wake
        if wake is not None:
            self._wake = None
            wake.succeed(None)

    def _on_deadline(self, timer: Timeout) -> None:
        if timer is self._deadline_timer:   # else superseded: stale no-op
            self._deadline_timer = None
            self.kick()

    def inject_stall(self, duration_ns: int) -> None:
        """Testing/case-study hook: make the loop stall (allocator lock,
        Sec. VII-D) so the poll-gap watchdog has something to catch."""
        self._injected_stall_ns += duration_ns
        self.kick()

    def _run(self) -> ProcessGenerator:
        config = self.config
        sim = self.sim
        # Hoisted for the poll hot loop: these bindings are fixed for the
        # context's lifetime (the CQs are created in __init__).  Each CQ's
        # backlog is tested before it is polled, so an empty CQ costs no
        # call; the loop polls the CQs directly, not through the verbs
        # passthrough.
        recv_cq = self.recv_cq
        send_cq = self.send_cq
        recv_backlog = recv_cq._entries
        send_backlog = send_cq._entries
        kicked = self._kicked
        kicked_set = self._kicked_set
        wr_routes = self._wr_routes
        last_keepalive = sim.now
        last_deadlock = sim.now
        last_shrink = sim.now
        while not self._stopped:
            if self._injected_stall_ns:
                stall, self._injected_stall_ns = self._injected_stall_ns, 0
                yield sim.timeout(stall)

            round_start = sim._now
            gap = round_start - self._last_round_ns
            if gap > config.polling_warn_cycle_ns:
                self.poll_gaps.append(gap)
                if self.tracer is not None:
                    self.tracer.on_slow_poll(self, gap)

            worked = False
            # ---- receive completions
            if recv_backlog:
                worked = True
                for completion in recv_cq.poll(64):
                    yield from self._handle_recv_completion(completion)
            # ---- send completions
            if send_backlog:
                worked = True
                for completion in send_cq.poll(64):
                    routed = wr_routes.pop(completion.wr_id, None)
                    if routed is not None:
                        channel, route = routed
                        yield from channel.on_send_completion(completion,
                                                              route)
            # ---- queued application sends
            while kicked:
                channel = kicked.popleft()
                kicked_set.discard(channel.channel_id)
                if channel.state is ChannelState.READY:
                    worked = True
                    if channel.pending_send:
                        yield from channel.pump()
            # ---- timers (intervals re-read so set_flag applies live)
            now = sim._now
            if now - last_keepalive >= config.keepalive_intv_ns:
                last_keepalive = now
                yield from self._keepalive_round(now)
            if now - last_deadlock >= config.deadlock_check_intv_ns:
                last_deadlock = now
                yield from self._deadlock_round()
            if now - last_shrink >= _SHRINK_INTV_NS:
                last_shrink = now
                self.memcache.shrink()
            if self.monitor is not None:
                self.monitor.maybe_sample(self)

            self._last_round_ns = sim._now
            if worked:
                self._idle_since = None
                # Direct construction: once per worked poll round.
                yield Timeout(sim, self.params.host_poll_overhead_ns)
                continue

            # ---- idle: hybrid polling parks on events
            if self._idle_since is None:
                self._idle_since = sim._now
            # Static name: one wake per idle transition of the poll loop;
            # an f-string here would be a per-idle allocation.  A CQ with
            # a backlog kicks at request_notify, clearing ``_wake``, so the
            # loop waits on its own reference.  A CQ still armed from an
            # earlier idle wait has had no CQE since (a push disarms it),
            # so it is empty and stays armed as it is.
            wake = self._wake = Event(sim, "ctxwake")
            if recv_cq._notify_cb is None:
                recv_cq.request_notify(self.kick)
            if send_cq._notify_cb is None:
                send_cq.request_notify(self.kick)
            deadline = min(last_keepalive + config.keepalive_intv_ns,
                           last_deadlock + config.deadlock_check_intv_ns,
                           last_shrink + _SHRINK_INTV_NS)
            # One deadline timer per context, shared by every idle wait
            # it outlives (its value is its fire instant): a timer per
            # wait would sit in the heap as a dead entry for up to a
            # deadlock-check interval each.
            fire_at = max(deadline, sim._now + 1_000)
            timer = self._deadline_timer
            if timer is None or timer._value != fire_at:
                timer = self._deadline_timer = Timeout(
                    sim, fire_at - sim._now, fire_at)
                timer.callbacks.append(self._on_deadline)
            yield wake
            woke_after = sim._now - self._idle_since
            if woke_after > _BUSY_POLL_WINDOW_NS:
                # Not busy-polling anymore (NAPI-style); pay the epoll wakeup.
                yield sim.timeout(self.params.host_wakeup_ns)

    def _handle_recv_completion(self,
                                completion: Completion) -> ProcessGenerator:
        entry = self._recv_buffers.pop(completion.wr_id, None)
        channel = self.channels.get(completion.qp_num)
        if channel is None and entry is not None:
            channel = entry[0]
        if channel is None:
            return
        if completion.status is not WrStatus.SUCCESS:
            # Buffer bookkeeping stays with the (now broken) channel.
            channel.mark_broken(f"recv CQE error: {completion.status.name}")
            return
        if entry is not None and channel.state is ChannelState.READY:
            posted = self._post_recv(channel, entry[1])
            if posted is not None:
                yield posted
        if self.filter is not None:
            if self.filter.should_drop(channel, completion):
                return
            delay = self.filter.delay_for(channel, completion)
            if delay:
                yield self.sim.timeout(delay)
        trace = getattr(completion.payload, "trace", None)
        if trace is not None:
            trace.mark("rx_poll")
        if self.filter is not None and self.filter.should_duplicate(
                channel, completion):
            # Middleware-level retransmit: the same header arrives
            # twice (the channel must treat it idempotently).
            yield from channel.on_receive(completion)
        yield from channel.on_receive(completion)

    def _keepalive_round(self, now: int) -> ProcessGenerator:
        for channel in list(self.channels.values()):
            if channel.state is not ChannelState.READY:
                continue
            if channel.idle_ns(now) >= self.config.keepalive_intv_ns:
                yield from channel.keepalive_probe()

    def _deadlock_round(self) -> ProcessGenerator:
        for channel in list(self.channels.values()):
            if channel.state is not ChannelState.READY:
                continue
            if channel.needs_nop():
                yield from channel.send_control(MessageKind.NOP)
            elif channel.window.unacked_arrivals() > 0 \
                    and not channel.pending_send:
                # Delayed-ack flush: consumed messages whose ack found no
                # reverse traffic to piggyback on.
                yield from channel.send_control(MessageKind.ACK)

    # ------------------------------------------------------------- plumbing
    def route_wr(self, wr: WorkRequest, channel: XrdmaChannel,
                 route: _WrRoute) -> None:
        wr.wr_id = next(self._wr_ids)
        self._wr_routes[wr.wr_id] = (channel, route)

    def deliver(self, msg: XrdmaMessage) -> None:
        self.incoming.put_nowait(msg)

    # ------------------------------------------------------------ inspection
    def stat_snapshot(self) -> Dict[str, Any]:
        """XR-Stat's per-context raw numbers."""
        return {
            "channels": len(self.channels),
            "broken_channels": self.broken_channels,
            "mem_occupied": self.memcache.occupied_bytes,
            "mem_in_use": self.memcache.in_use_bytes,
            "mr_count": self.memcache.mr_count,
            "qp_cache_size": len(self.qpcache),
            "qp_cache_hits": self.qpcache.hits,
            "qp_cache_misses": self.qpcache.misses,
            "qp_cache_recycled": self.qpcache.recycled,
            "qp_cache_destroyed": self.qpcache.destroyed,
            "connect_failures": self.connect_failures,
            "drain_timeouts": self.drain_timeouts,
            "incoming_backlog": len(self.incoming.items),
            "slow_polls": len(self.poll_gaps),
        }
