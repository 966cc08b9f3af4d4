"""Channel teardown under queued load: the drop_all/drain budget races.

Two channels share the context's 4-slot WR budget; one dies mid-burst.
The dead channel's queued WRs are dropped, its in-flight completions race
the teardown, and the survivor must still receive every message — with
the budget balanced to zero at the end.
"""

import pytest

from repro.sim import MILLIS
from repro.verbs.cm import ConnectError
from tests.conftest import run_process
from tests.scenarios.conftest import assert_quiescent, close_channels, settle
from tests.xrdma.conftest import make_context


def test_teardown_under_queued_load(cluster):
    client = make_context(cluster, 0)
    server = make_context(cluster, 1)
    accepted = server.listen(9200)

    def connect_two():
        ch_a = yield from client.connect(1, 9200)
        srv_a = yield accepted.get()
        ch_b = yield from client.connect(1, 9200)
        srv_b = yield accepted.get()
        return ch_a, srv_a, ch_b, srv_b

    ch_a, srv_a, ch_b, srv_b = run_process(cluster, connect_two())

    n = 30
    for _ in range(n):
        client.send_msg(ch_a, 2048)
        client.send_msg(ch_b, 2048)
    settle(cluster, 50_000)             # some WRs in flight, most queued
    # Kill A on both ends mid-burst: drop_all() returns its budget slots
    # while late completions are still arriving.
    ch_a.mark_broken("injected mid-burst failure")
    srv_a.mark_broken("peer injected mid-burst failure")
    settle(cluster, 500 * MILLIS)

    # B was never touched: the shared budget must keep feeding it (the
    # seed stranded B's waiters and/or over-admitted after the race).
    assert srv_b.stats["rx_msgs"] == n
    assert ch_b.window.in_flight == 0

    close_channels(cluster, client)
    settle(cluster)
    assert_quiescent(client, server)


def test_stopped_context_withdraws_its_listeners(cluster):
    """``stop()`` used to leave the CM listener registered and the accept
    loop parked: a peer's connect came back READY, a message on it was
    never acked while the NIC kept answering keepalives, and no second
    context on the host could listen on the port."""
    server = make_context(cluster, 1)
    server.listen(9000)
    listener = cluster.host(1).cm.listeners[9000]
    server.stop()
    client = make_context(cluster, 0)

    def connect_refused():
        with pytest.raises(ConnectError):
            yield from client.connect(1, 9000)

    run_process(cluster, connect_refused())
    assert 9000 not in cluster.host(1).cm.listeners
    assert not listener.accepted._getters      # the accept loop ended

    successor = make_context(cluster, 1)
    accepted = successor.listen(9000)

    def exchange():
        channel = yield from client.connect(1, 9000)
        peer = yield accepted.get()
        client.send_msg(channel, 64, payload="ping")
        yield cluster.sim.timeout(500 * MILLIS)
        return channel, peer

    channel, peer = run_process(cluster, exchange())
    assert channel.window.in_flight == 0       # acked, not wedged
    assert [m.payload for m in successor.polling()] == ["ping"]
    close_channels(cluster, client)
    settle(cluster)
    assert_quiescent(client, successor)
