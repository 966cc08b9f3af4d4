"""XR-Trace: span decomposition, zero residual, sampling symmetry.

The span chain must account for every nanosecond between app enqueue and
app-level ack (residual exactly zero — a fatal invariant under tests),
sender and receiver must share one sampling decision, and the clock-sync
defects fixed in this PR (nonzero self-offset, silent negative-network
clamp, never-aging estimates) must stay fixed.
"""

import json

import pytest

from repro.analysis import (ClockSync, FaultRule, Filter, Tracer,
                            TraceContext)
from repro.analysis.invariants import InvariantError
from repro.analysis.tracing import (LARGE_STAGES, REQUIRED_STAGES,
                                    analyze, export_jsonl,
                                    merged_trace_records)
from repro.sim import MILLIS, RngRegistry, SECONDS
from repro.xrdma import XrdmaConfig
from tests.conftest import run_process
from tests.xrdma.conftest import connect_pair


def traced_pair(cluster, mask=1, port=9100):
    config = XrdmaConfig(req_rsp_mode=True, trace_sample_mask=mask)
    client, server, client_ch, server_ch = connect_pair(
        cluster, port=port, client_config=config, server_config=config)
    sync = ClockSync(cluster.rng)
    return (client, server, client_ch, server_ch,
            Tracer(client, sync), Tracer(server, sync))


def acked(tracer):
    """Sender records closed by the app-level ack (end-to-end totals)."""
    return [record for record in tracer.records.values()
            if record.view == "sender" and record.complete]


def decomposed(tracer):
    """Receiver records: one network decomposition per delivery."""
    return [record for record in tracer.records.values()
            if record.view == "receiver"]


def send_and_ack(cluster, client, server, client_ch, n=1, size=256):
    def scenario():
        messages = [client.send_msg(client_ch, size) for _ in range(n)]
        for _ in range(n):
            yield server.incoming.get()
        for msg in messages:
            yield msg.acked
        return messages

    return run_process(cluster, scenario(), limit=10 * SECONDS)


# ------------------------------------------------------------ zero residual

def test_small_message_chain_is_complete_and_zero_residual(cluster):
    client, server, client_ch, _, ct, st = traced_pair(cluster)
    (msg,) = send_and_ack(cluster, client, server, client_ch, size=256)
    record = ct.records[msg.header.trace_id]
    assert record.complete
    assert record.residual_ns == 0
    assert sum(d for _, d in record.spans) == record.total_ns > 0
    stages = {stage for stage, _ in record.spans}
    assert REQUIRED_STAGES <= stages
    assert not (LARGE_STAGES & stages)          # small: no rendezvous spans
    assert any(stage.startswith("wire_hop") for stage in stages)


def test_large_message_chain_includes_rendezvous_spans(cluster):
    client, server, client_ch, _, ct, st = traced_pair(cluster)
    (msg,) = send_and_ack(cluster, client, server, client_ch,
                          size=256 * 1024)
    record = ct.records[msg.header.trace_id]
    assert record.complete
    assert record.residual_ns == 0
    stages = {stage for stage, _ in record.spans}
    assert (REQUIRED_STAGES | LARGE_STAGES) <= stages
    # The receiver-driven RDMA Read dominates a large transfer's life.
    spans = dict(record.spans)
    assert spans["rendezvous_read"] > 0


def test_delivery_joins_sender_and_receiver_views(cluster):
    client, server, client_ch, _, ct, st = traced_pair(cluster)
    (msg,) = send_and_ack(cluster, client, server, client_ch)
    trace_id = msg.header.trace_id
    sender, receiver = ct.records[trace_id], st.records[trace_id]
    assert sender.view == "sender" and receiver.view == "receiver"
    # After the finalize join both views agree on the decomposition.
    assert receiver.complete
    assert receiver.spans == sender.spans
    assert receiver.total_ns == sender.total_ns
    assert sender.network_ns == receiver.network_ns != 0


# ---------------------------------------------------------------- sampling

def test_sampling_decision_is_symmetric(cluster):
    """One decision, made by the sender, drives both ends' records — the
    seed's asymmetry (receiver sampled, sender recorded everything) gave
    the two ends different denominators."""
    client, server, client_ch, _, ct, st = traced_pair(cluster, mask=4)
    send_and_ack(cluster, client, server, client_ch, n=16)
    # 16 consecutive trace ids contain exactly four multiples of 4.
    assert len(ct.records) == 4
    assert set(ct.records) == set(st.records)
    assert all(record.complete for record in ct.records.values())
    assert len(acked(ct)) == 4
    assert len(decomposed(st)) == 4


def test_mask_zero_samples_nothing(cluster):
    client, server, client_ch, _, ct, st = traced_pair(cluster, mask=0)
    send_and_ack(cluster, client, server, client_ch, n=4)
    assert not ct.records and not st.records
    assert not acked(ct) and not decomposed(st)


def test_dropped_message_leaves_flagged_incomplete_record(cluster):
    client, server, client_ch, _, ct, st = traced_pair(cluster)
    server.filter = Filter(cluster.rng.stream("trace-drop"))
    server.filter.add_rule(FaultRule(drop_probability=1.0))
    client.send_msg(client_ch, 128)
    cluster.sim.run(until=cluster.sim.now + 50 * MILLIS)
    assert analyze({}, ct.export_records())["summary"]["incomplete"] == 1
    record = next(iter(ct.records.values()))
    assert not record.complete and record.total_ns == 0
    assert st.records == {}                   # never delivered, never faked
    assert not acked(ct)                      # incomplete stays out of stats
    server.filter.clear()


# ------------------------------------------------------------ clamp counter

def test_negative_network_time_is_counted_not_hidden(cluster):
    client, server, client_ch, _, ct, st = traced_pair(cluster)
    # Poison the estimate: a wildly wrong offset makes the decomposition
    # go negative, which the seed silently clamped to zero.
    st.clocksync._estimates[(client.nic.host_id, server.nic.host_id)] = \
        (10 ** 9, 0)
    (msg,) = send_and_ack(cluster, client, server, client_ch)
    assert st.negative_network_clamped == 1
    record = st.records[msg.header.trace_id]
    assert record.network_ns < 0              # the signed truth is kept
    assert decomposed(st) == [record]         # and counted once


# ------------------------------------------------------------- clock sync

def test_self_sync_is_exactly_zero_and_consumes_no_entropy():
    sync = ClockSync(RngRegistry(1))
    witness = ClockSync(RngRegistry(1))
    assert sync.sync(4, 4) == 0
    assert sync.offset(4, 4) == 0
    assert sync.exchanges == 0
    # The self-sync drew nothing from the rng stream: the next real
    # exchange matches a registry that never self-synced.
    assert sync.sync(0, 1) == witness.sync(0, 1)


def test_estimates_age_out_under_resync_policy():
    sync = ClockSync(RngRegistry(1), resync_after_ns=1_000)
    first = sync.sync(0, 1, now_ns=0)
    assert sync.exchanges == 1
    assert sync.offset(0, 1, now_ns=500) == first     # still fresh
    assert sync.exchanges == 1
    sync.offset(0, 1, now_ns=1_000)                   # aged: re-estimate
    assert sync.exchanges == 2
    # Without the policy (the seed behaviour) estimates never age.
    lazy = ClockSync(RngRegistry(1))
    lazy.sync(0, 1, now_ns=0)
    lazy.offset(0, 1, now_ns=10 ** 15)
    assert lazy.exchanges == 1


# ------------------------------------------------------------ mark hygiene

def test_mark_dedup_suppresses_repeat_traversals(cluster):
    trace = TraceContext(1, cluster.sim, cluster.sim.now)
    trace.mark("post_send")
    trace.mark("post_send")                   # retransmit re-entry
    assert trace.suppressed_marks == 1
    assert [stage for stage, _ in trace.marks] == ["app_enqueue",
                                                   "post_send"]


def test_nonmonotonic_mark_is_an_invariant_violation():
    class RewindingSim:
        now = 1_000

    sim = RewindingSim()
    trace = TraceContext(1, sim, 1_000)
    trace.mark("post_send")
    sim.now = 500
    with pytest.raises(InvariantError):
        trace.mark("nic_tx")


# ----------------------------------------------------------------- export

def test_export_jsonl_round_trips(cluster, tmp_path):
    client, server, client_ch, _, ct, st = traced_pair(cluster)
    send_and_ack(cluster, client, server, client_ch, n=3)
    path = tmp_path / "traces.jsonl"
    written = export_jsonl(path, [ct, st])
    lines = [json.loads(line)
             for line in path.read_text().strip().splitlines()]
    meta, records = lines[0]["meta"], lines[1:]
    assert written == len(records) == 3
    assert meta["records"] == 3 and meta["incomplete"] == 0
    # One line per trace, sender view wins, sorted by trace id.
    assert all(record["view"] == "sender" for record in records)
    assert [r["trace_id"] for r in records] == \
        sorted(r["trace_id"] for r in records)
    for record in records:
        assert sum(d for _, d in record["spans"]) == record["total_ns"]
        assert record["residual_ns"] == 0


def test_merged_records_prefer_sender_view(cluster):
    client, server, client_ch, _, ct, st = traced_pair(cluster)
    send_and_ack(cluster, client, server, client_ch)
    merged = merged_trace_records([st, ct])    # receiver listed first
    assert len(merged) == 1
    assert merged[0]["view"] == "sender"
