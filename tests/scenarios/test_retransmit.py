"""Middleware-level retransmits: duplicate arrivals must be idempotent.

The fault filter re-delivers ~30% of the server's inbound headers.  Small
messages must not be delivered twice, large ones must not start a second
rendezvous (the seed leaked the first read's buffer), and the window must
absorb every duplicate without wedging.
"""

from repro.analysis import ClockSync, FaultRule, Filter, Tracer
from repro.sim import MILLIS, SECONDS
from repro.xrdma import XrdmaConfig
from tests.conftest import run_process
from tests.scenarios.conftest import assert_quiescent, close_channels, settle
from tests.xrdma.conftest import connect_pair


def test_duplicate_arrivals_deliver_exactly_once(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster, port=9300)
    server.filter = Filter(cluster.rng.stream("scenario-dup"))
    server.filter.add_rule(FaultRule(duplicate_probability=0.3))

    n_small, n_large = 40, 10
    for _ in range(n_small):
        client.send_msg(client_ch, 512)
    for _ in range(n_large):
        client.send_msg(client_ch, 256 * 1024)   # rendezvous-read path
    total = n_small + n_large

    def drain():
        got = []
        while len(got) < total:
            got.extend(server.polling())
            yield cluster.sim.timeout(100_000)
        return got

    got = run_process(cluster, drain(), limit=60 * SECONDS)
    settle(cluster, 300 * MILLIS)                # let trailing duplicates land
    got.extend(server.polling())

    assert server.filter.duplicated > 0          # the fault actually fired
    assert len(got) == total                     # exactly once regardless
    # Delivery is strictly in sequence order, duplicates notwithstanding.
    assert [msg.payload_size for msg in got] == \
        [512] * n_small + [256 * 1024] * n_large
    assert server_ch._pending_delivery == {}
    assert server_ch._rendezvous == {}

    server.filter.clear()
    close_channels(cluster, client)
    settle(cluster)
    assert_quiescent(client, server)


def test_traced_duplicates_record_spans_exactly_once(cluster):
    """XR-Trace under middleware retransmits: duplicate arrivals must not
    double-record span marks, delivery records, or ack totals — exactly
    one complete record per message on each side."""
    config = XrdmaConfig(req_rsp_mode=True, trace_sample_mask=1)
    client, server, client_ch, server_ch = connect_pair(
        cluster, port=9310, client_config=config, server_config=config)
    sync = ClockSync(cluster.rng)
    client_tracer = Tracer(client, sync)
    server_tracer = Tracer(server, sync)
    server.filter = Filter(cluster.rng.stream("scenario-dup-traced"))
    server.filter.add_rule(FaultRule(duplicate_probability=0.4))

    n_small, n_large = 30, 6
    for _ in range(n_small):
        client.send_msg(client_ch, 512)
    for _ in range(n_large):
        client.send_msg(client_ch, 256 * 1024)
    total = n_small + n_large

    def drain():
        got = []
        while len(got) < total:
            got.extend(server.polling())
            yield cluster.sim.timeout(100_000)
        return got

    got = run_process(cluster, drain(), limit=60 * SECONDS)
    settle(cluster, 300 * MILLIS)                # trailing duplicates + acks
    got.extend(server.polling())

    assert server.filter.duplicated > 0          # the fault actually fired
    assert len(got) == total
    # Exactly one sender record per message, every one finalized, and
    # exactly one network decomposition per delivered message.
    assert len(client_tracer.records) == total
    assert all(record.complete and record.view == "sender"
               for record in client_tracer.records.values())
    assert len(server_tracer.records) == total
    assert all(record.view == "receiver" and record.received_local_ns
               for record in server_tracer.records.values())
    # Spans still sum exactly despite duplicate traversals (the fatal
    # zero-residual invariant also enforced this during finalize).
    for record in client_tracer.records.values():
        assert record.residual_ns == 0
        assert sum(d for _, d in record.spans) == record.total_ns

    server.filter.clear()
    close_channels(cluster, client)
    settle(cluster)
    assert_quiescent(client, server)
