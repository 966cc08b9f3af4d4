"""XR-Trace: span-decomposed req-rsp tracing (Sec. VI-A).

In req-rsp mode each message's header carries a trace id, the sender's
local timestamp and — for sampled messages — a :class:`TraceContext` that
rides the header through every layer of the stack.  Each layer closes one
named span by calling :meth:`TraceContext.mark`; a completed trace
decomposes the message's whole life into contiguous segments:

========================  ====================================================
stage (span it closes)    closed by
========================  ====================================================
``window_wait``           channel pump: a seq-ack window slot was claimed
``src_alloc``             large only: source buffer registered for the read
``flowctl_queue``         flow controller issued the WR (queue + budget wait)
``post_send``             WQE entered the send queue (verbs posting overhead)
``nic_tx``                NIC engine emitted the first fragment
``wire_hop<N>``           switch N forwarded the first fragment
``rx_nic``                receiver NIC finished reassembling the message
``tcp_send``              Mock detour only, instead of ``flowctl_queue`` …
                          ``rx_nic``: the socket write returned (syscall+copy)
``rx_poll``               receiver context picked the CQE up (poll pickup)
``rendezvous_read``       large only: the receiver's RDMA Read completed
``window_ready``          receiver window advanced rta past the message
``rx_deliver``            message handed to the receiving application
``ack_return``            sender saw the app-level cumulative ack
========================  ====================================================

Marks record timestamps only — they never create, drop or reorder
simulation events, so tracing is schedule-neutral by construction (the
digest-equivalence tests enforce it).  Spans are consecutive differences
between marks, so for a complete chain they sum *exactly* to the
end-to-end total; any residual means an instrumentation defect and trips
the ``tracing.span_residual`` invariant.

The tracer also keeps the paper's three case-by-case long-latency
methods:

I.   **Network decomposition** — with clock-synced hosts, the real request
     time is ``T2 - T1 - Toff``.
II.  **Poll-gap watchdog** — the context reports gaps between polling
     rounds; gaps over ``polling_warn_cycle`` become log entries (this is
     how the Pangu allocator-lock jitter of Sec. VII-D was found).
III. **Slow-segment log** — instrumented code segments exceeding
     ``slow_threshold`` are recorded with their location.

A tracer keeps records, not rollups: :attr:`Tracer.records` is its only
store, and :func:`analyze` is the only code that folds records into
numbers (nearest-rank percentiles per stage, critical-path attribution).
The ``xr_trace`` CLI prints that fold, and every traced fleet run carries
it as its ``trace`` section.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Optional,
                    Tuple)

from repro.analysis import invariants
from repro.analysis.clocksync import ClockSync
from repro.analysis.invariants import check as _invariant
from repro.analysis.stats import nearest_rank

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.xrdma.channel import XrdmaChannel
    from repro.xrdma.context import XrdmaContext
    from repro.xrdma.message import XrdmaHeader, XrdmaMessage

#: Stages every completed trace must contain (``wire_hop<N>`` marks are
#: topology-dependent — loopback has none — and the ``src_alloc`` /
#: ``rendezvous_read`` stages exist only on the large-message path).
REQUIRED_STAGES = frozenset((
    "window_wait", "flowctl_queue", "post_send", "nic_tx",
    "rx_nic", "rx_poll", "window_ready", "rx_deliver", "ack_return",
))

#: Extra stages required when the message went through rendezvous.
LARGE_STAGES = frozenset(("src_alloc", "rendezvous_read"))

#: Required stages a message the Mock's TCP detour carried never passes
#: (its strategy closes one ``tcp_send`` span in their place).
RC_WIRE_STAGES = frozenset(("flowctl_queue", "post_send", "nic_tx", "rx_nic"))

#: Stages of a completed *setup* trace (channel establishment).  The
#: control plane decomposes the same zero-residual way the data path
#: does: address/route resolve, QP allocation + INIT (``qp_setup``), the
#: REQ/REP wait, RTR+RTS (``qp_to_rts``), the first receive-buffer MR
#: registration (``mr_reg`` — zero when the memory cache is warm) and
#: the remaining receive pre-posting (``recv_prime``).
SETUP_STAGES = frozenset((
    "cm_resolve", "qp_setup", "handshake", "qp_to_rts",
    "mr_reg", "recv_prime",
))


class TraceContext:
    """Per-sampled-message span accumulator, propagated inside the header.

    The context carries its own simulator reference so clock-less layers
    (the seq-ack window, the QP) can close spans without plumbing time
    through their APIs.  ``mark`` is idempotent per stage — middleware
    retransmits, duplicate deliveries and go-back-N replays re-enter the
    instrumented paths, and only the *first* traversal may close a span —
    and refuses non-monotonic timestamps outright.
    """

    __slots__ = ("trace_id", "sim", "marks", "_seen", "suppressed_marks",
                 "sender_record", "delivery_record")

    def __init__(self, trace_id: int, sim: "Simulator",
                 start_ns: int, anchor: str = "app_enqueue") -> None:
        self.trace_id = trace_id
        self.sim = sim
        #: (stage, timestamp); marks[0] anchors the chain (app enqueue
        #: for message traces, setup_begin for establishment traces)
        self.marks: List[Tuple[str, int]] = [(anchor, start_ns)]
        self._seen = {anchor}
        #: re-traversals that tried to close an already-closed span
        self.suppressed_marks = 0
        self.sender_record: Optional["TraceRecord"] = None
        self.delivery_record: Optional["TraceRecord"] = None

    def mark(self, stage: str) -> None:
        """Close the span ending at this stage (first traversal only)."""
        if stage in self._seen:
            self.suppressed_marks += 1
            return
        now = self.sim.now
        if not _invariant(now >= self.marks[-1][1],
                          "tracing.nonmonotonic_mark",
                          lambda: f"trace {self.trace_id}: {stage} at {now} "
                                  f"after {self.marks[-1]}"):
            self.suppressed_marks += 1
            return
        self._seen.add(stage)
        self.marks.append((stage, now))

    @property
    def start_ns(self) -> int:
        return self.marks[0][1]

    def stages(self) -> List[str]:
        return [stage for stage, _ in self.marks]

    def spans(self) -> List[Tuple[str, int]]:
        """(stage, duration) pairs; each span is named by the mark that
        closed it, so the list sums to last mark − first mark exactly."""
        return [(stage, t1 - t0)
                for (_, t0), (stage, t1) in zip(self.marks, self.marks[1:])]


@dataclass
class TraceRecord:
    """One traced message's decomposition (the collector's view)."""

    trace_id: int
    channel_id: int
    src_host: int
    dst_host: int
    payload_size: int
    kind: str = ""
    view: str = "sender"        #: which end's tracer created the record
    sent_local_ns: int = 0      #: T1, sender's clock
    received_local_ns: int = 0  #: T2, receiver's clock
    network_ns: int = 0         #: T2 - T1 - Toff (may be negative: residual)
    total_ns: int = 0           #: app enqueue → app-level ack (sender view)
    started_at_ns: int = 0      #: sim-time send enqueue
    spans: List[Tuple[str, int]] = field(default_factory=list)
    complete: bool = False      #: delivered *and* acked; totals are final
    residual_ns: int = 0        #: total - Σ spans (zero unless a hook broke)
    tenant: str = ""            #: owning tenant (serving runs; "" otherwise)

    def as_dict(self) -> Dict[str, Any]:
        """The fields in declaration order, ``spans`` entries as lists —
        exactly what a JSON round trip of the record gives back."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["spans"] = [list(span) for span in self.spans]
        if not self.tenant:
            # Only serving runs tag tenants; the key is omitted otherwise
            # so untagged artifacts stay byte-identical with older ones.
            del out["tenant"]
        return out


@dataclass
class SlowLogEntry:
    location: str
    duration_ns: int
    host: int


class Tracer:
    """Per-context tracing hooks; attach via ``Tracer(ctx, clocksync)``."""

    def __init__(self, ctx: "XrdmaContext", clocksync: ClockSync,
                 tenant: str = ""):
        self.ctx = ctx
        self.clocksync = clocksync
        #: tenant tag stamped into every record this tracer creates
        self.tenant = tenant
        self.clock = clocksync.clock(ctx.nic.host_id)
        self.records: Dict[int, TraceRecord] = {}
        #: sender-side contexts begun but not yet acked
        self.pending: Dict[int, TraceContext] = {}
        self.slow_log: List[SlowLogEntry] = []
        self.poll_gap_log: List[SlowLogEntry] = []
        #: negative network decompositions (clock-sync residual larger than
        #: the true network time) — counted; the record keeps the sign
        self.negative_network_clamped = 0
        #: marks suppressed across finalized traces (retransmit visibility)
        self.suppressed_marks = 0
        ctx.tracer = self

    # ----------------------------------------------------------- sampling
    def samples(self, trace_id: int) -> bool:
        """THE sampling decision — made once, on the sender, and carried to
        the receiver inside the header (symmetric by construction)."""
        mask = self.ctx.config.trace_sample_mask
        if mask == 0 or trace_id == 0:
            return False
        return trace_id % mask == 0 if mask > 1 else True

    # ------------------------------------------------------ channel hooks
    def begin_trace(self, channel: "XrdmaChannel", msg: "XrdmaMessage",
                    header: "XrdmaHeader") -> Optional[TraceContext]:
        """Sender side, called at header build time: start the span chain
        for a sampled message (returns None when unsampled)."""
        if not self.samples(header.trace_id):
            return None
        trace = TraceContext(header.trace_id, self.ctx.sim, msg.created_at)
        record = TraceRecord(
            trace_id=header.trace_id, channel_id=channel.channel_id,
            src_host=self.ctx.nic.host_id, dst_host=channel.remote_host,
            payload_size=msg.payload_size, kind=msg.kind.name,
            view="sender", sent_local_ns=header.sent_at_ns,
            started_at_ns=msg.created_at, tenant=self.tenant)
        trace.sender_record = record
        self.records[header.trace_id] = record
        self.pending[header.trace_id] = trace
        trace.mark("window_wait")
        return trace

    def on_message_delivered(self, channel: "XrdmaChannel",
                             msg: "XrdmaMessage") -> None:
        """Receiver side: build the network decomposition.

        Records if and only if the sender sampled the message — the trace
        context in the header *is* the decision, so sender and receiver
        records share one denominator.
        """
        header = msg.header
        trace = None if header is None else getattr(header, "trace", None)
        if trace is None or trace.delivery_record is not None:
            return
        src_host = channel.remote_host
        dst_host = self.ctx.nic.host_id
        toff = self.clocksync.offset(src_host, dst_host,
                                     now_ns=self.ctx.sim.now)
        received_local = self.clock.read(self.ctx.sim.now)
        network = received_local - header.sent_at_ns - toff
        record = self.records.get(trace.trace_id)
        if record is None:
            record = TraceRecord(
                trace_id=trace.trace_id, channel_id=channel.channel_id,
                src_host=src_host, dst_host=dst_host,
                payload_size=header.payload_size, kind=header.kind.name,
                view="receiver", sent_local_ns=header.sent_at_ns,
                started_at_ns=trace.start_ns, tenant=self.tenant)
            self.records[trace.trace_id] = record
        record.received_local_ns = received_local
        record.network_ns = network
        trace.delivery_record = record
        if network < 0:
            # Clock-sync residual exceeded the true network time: the
            # record keeps the signed value, and the event is a crucial
            # index of its own (every trace summary reports it).
            self.negative_network_clamped += 1

    def on_message_acked(self, channel: "XrdmaChannel",
                         msg: "XrdmaMessage") -> None:
        """Sender side: the app-level ack closes the chain; finalize."""
        header = msg.header
        trace = None if header is None else getattr(header, "trace", None)
        if trace is None:
            return
        trace.mark("ack_return")
        self._finalize(trace, msg)

    def _close_record(self, trace: TraceContext,
                      total: int) -> Optional[TraceRecord]:
        """Close the sender record of ``trace`` against ``total``; None
        when it is unsampled or already closed."""
        record = trace.sender_record
        if record is None or record.complete:
            return None
        record.total_ns = total
        record.spans = trace.spans()
        record.residual_ns = total - sum(
            duration for _, duration in record.spans)
        record.complete = True
        self.pending.pop(trace.trace_id, None)
        self.suppressed_marks += trace.suppressed_marks
        return record

    def _finalize(self, trace: TraceContext, msg: "XrdmaMessage") -> None:
        # The end-to-end total is measured independently of the marks
        # (enqueue to ack, the latency the application observes); the
        # spans must account for every nanosecond of it.
        total = self.ctx.sim.now - msg.created_at
        record = self._close_record(trace, total)
        if record is None:
            return
        spans, residual = record.spans, record.residual_ns
        # Centralized-collector join: stamp the sender's totals into the
        # receiver-side record (the same TraceContext object reaches both
        # tracers), and the receiver's network view back into ours.
        delivery = trace.delivery_record
        if delivery is not None and delivery is not record:
            delivery.total_ns = total
            delivery.spans = spans
            delivery.residual_ns = residual
            delivery.complete = True
            record.received_local_ns = delivery.received_local_ns
            record.network_ns = delivery.network_ns
        if invariants.ENABLED:
            _invariant(residual == 0, "tracing.span_residual",
                       lambda: f"trace {trace.trace_id}: total {total} != "
                               f"Σ spans {total - residual} "
                               f"(residual {residual})")
            stages = trace.stages()
            required = REQUIRED_STAGES
            if "tcp_send" in stages:    # the transport that carried it
                required = required - RC_WIRE_STAGES
            if getattr(msg.header, "large", False):
                required = required | LARGE_STAGES
            missing = required.difference(stages)
            _invariant(not missing, "tracing.incomplete_span_chain",
                       lambda: f"trace {trace.trace_id} missing "
                               f"{sorted(missing)}")

    # -------------------------------------------------------- setup tracing
    def begin_setup(self, remote_host: int,
                    service_port: int) -> Optional[TraceContext]:
        """Start a channel-establishment trace (``connect`` calls this).

        Setup and message traces share the run's ``trace`` ids, so
        ``(run_id, trace_id)`` stays unique across both kinds in merged
        artifacts.  Returns None when the sample mask traces nothing.
        """
        if self.ctx.config.trace_sample_mask == 0:
            return None
        trace_id = self.ctx.sim.next_id("trace")
        now = self.ctx.sim.now
        trace = TraceContext(trace_id, self.ctx.sim, now,
                             anchor="setup_begin")
        record = TraceRecord(
            trace_id=trace_id, channel_id=0,
            src_host=self.ctx.nic.host_id, dst_host=remote_host,
            payload_size=0, kind="SETUP", view="setup",
            started_at_ns=now, tenant=self.tenant)
        trace.sender_record = record
        self.records[trace_id] = record
        self.pending[trace_id] = trace
        return trace

    def finalize_setup(self, trace: TraceContext) -> None:
        """Close a setup trace (establishment finished and channel primed).

        A failed connect simply never finalizes: the record stays
        incomplete, and :func:`analyze` counts it under ``incomplete``.
        """
        total = self.ctx.sim.now - trace.start_ns
        record = self._close_record(trace, total)
        if record is None:
            return
        residual = record.residual_ns
        if invariants.ENABLED:
            _invariant(residual == 0, "tracing.setup_span_residual",
                       lambda: f"setup trace {trace.trace_id}: total "
                               f"{total} != Σ spans {total - residual} "
                               f"(residual {residual})")
            missing = SETUP_STAGES.difference(trace.stages())
            _invariant(not missing, "tracing.setup_incomplete_chain",
                       lambda: f"setup trace {trace.trace_id} missing "
                               f"{sorted(missing)}")

    # ----------------------------------------------------- context callbacks
    def on_slow_poll(self, ctx: "XrdmaContext", gap_ns: int) -> None:
        """Method II: the polling watchdog fired."""
        self.poll_gap_log.append(SlowLogEntry(
            location="polling", duration_ns=gap_ns, host=ctx.nic.host_id))

    # --------------------------------------------------------- app-facing api
    def segment(self, location: str, duration_ns: int) -> None:
        """Method III: record an instrumented code segment's duration."""
        if duration_ns >= self.ctx.config.slow_threshold_ns:
            self.slow_log.append(SlowLogEntry(
                location=location, duration_ns=duration_ns,
                host=self.ctx.nic.host_id))

    def trace_request(self, msg: "XrdmaMessage") -> Optional[TraceRecord]:
        """The ``xrdma_trace_request`` API."""
        if msg.header is None:
            return None
        return self.records.get(msg.header.trace_id)

    # ------------------------------------------------------------- summaries
    def export_records(self) -> List[Dict[str, Any]]:
        """Every record as a JSONL-ready dict, ordered by trace id."""
        return [self.records[trace_id].as_dict()
                for trace_id in sorted(self.records)]


# ------------------------------------------------------------- run artifact
def merged_trace_records(tracers: Iterable[Tracer]) -> List[Dict[str, Any]]:
    """One dict per trace across many tracers, sender view preferred.

    Sender and receiver tracers each hold a record for the same trace id;
    after the finalize join they agree on spans and totals, so the export
    keeps a single line per trace (deterministic order: by trace id).
    """
    by_id: Dict[int, Dict[str, Any]] = {}
    for tracer in tracers:
        for record in tracer.export_records():
            existing = by_id.get(record["trace_id"])
            if existing is None or (existing["view"] != "sender"
                                    and record["view"] == "sender"):
                by_id[record["trace_id"]] = record
    return [by_id[trace_id] for trace_id in sorted(by_id)]


def tracer_totals(tracers: Iterable[Tracer]) -> Dict[str, int]:
    """The two counts a tracer keeps outside its records — negative-network
    clamps and suppressed marks — summed: the meta :func:`analyze` reads."""
    tracers = list(tracers)
    return {
        "negative_network_clamped": sum(
            tracer.negative_network_clamped for tracer in tracers),
        "suppressed_marks": sum(
            tracer.suppressed_marks for tracer in tracers),
    }


def export_jsonl(path: Any, tracers: Iterable[Tracer]) -> int:
    """Write one trace artifact: a meta line, then one line per trace.

    Returns the number of trace lines written.  The format is what
    ``repro.tools.xr_trace`` reads and what fleet runs attach per unit.
    """
    tracers = list(tracers)
    records = merged_trace_records(tracers)
    header: Dict[str, Any] = {
        "records": len(records),
        "incomplete": sum(1 for record in records
                          if not record["complete"]),
        **tracer_totals(tracers),
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"meta": header}, sort_keys=True) + "\n")
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


# ------------------------------------------------------------------ the fold
def analyze(meta: Dict[str, Any], records: List[Dict[str, Any]],
            slowest: int = 5) -> Dict[str, Any]:
    """Fold trace records into the report payload (the ``--json`` output)."""
    completed = [record for record in records if record.get("complete")]
    spans_by_stage: Dict[str, List[int]] = {}
    dominated_by: Dict[str, int] = {}
    grand_total = 0
    for record in completed:
        worst_stage, worst_ns = "", -1
        for stage, duration in record.get("spans", []):
            spans_by_stage.setdefault(stage, []).append(int(duration))
            grand_total += int(duration)
            # Ties go to the later stage name: max over (duration, stage).
            if (duration, stage) > (worst_ns, worst_stage):
                worst_stage, worst_ns = stage, duration
        if worst_stage:
            dominated_by[worst_stage] = dominated_by.get(worst_stage, 0) + 1

    segments: Dict[str, Dict[str, Any]] = {}
    for stage in sorted(spans_by_stage):
        values = sorted(spans_by_stage[stage])
        total = sum(values)
        segments[stage] = {
            "count": len(values),
            "p50_ns": nearest_rank(values, 0.50),
            "p90_ns": nearest_rank(values, 0.90),
            "p99_ns": nearest_rank(values, 0.99),
            "max_ns": values[-1],
            "total_ns": total,
            "share": round(total / grand_total, 4) if grand_total else 0.0,
        }

    ranked = sorted(
        completed,
        key=lambda record: (-int(record.get("total_ns", 0)),
                            int(record["trace_id"]),
                            str(record.get("run_id", ""))))
    worst = [{
        "trace_id": record["trace_id"],
        "run_id": record.get("run_id", ""),
        "src_host": record.get("src_host"),
        "dst_host": record.get("dst_host"),
        "kind": record.get("kind", ""),
        "payload_size": record.get("payload_size", 0),
        "total_ns": record.get("total_ns", 0),
        "network_ns": record.get("network_ns", 0),
        "residual_ns": record.get("residual_ns", 0),
        "spans": record.get("spans", []),
        "dominant": max(record.get("spans", []) or [["", 0]],
                        key=lambda item: (item[1], item[0]))[0],
    } for record in ranked[:slowest]]

    residual_violations = sum(
        1 for record in completed if record.get("residual_ns", 0) != 0)
    setup_traces = sum(1 for record in records
                       if record.get("view") == "setup")
    return {
        "summary": {
            "records": len(records),
            "completed": len(completed),
            "incomplete": len(records) - len(completed),
            "setup_traces": setup_traces,
            "residual_violations": residual_violations,
            "negative_network_clamped": int(
                meta.get("negative_network_clamped",
                         sum(1 for record in records
                             if record.get("network_ns", 0) < 0))),
            "suppressed_marks": int(meta.get("suppressed_marks", 0)),
        },
        "segments": segments,
        "slowest": worst,
        "critical_path": {stage: dominated_by[stage]
                          for stage in sorted(dominated_by)},
    }
