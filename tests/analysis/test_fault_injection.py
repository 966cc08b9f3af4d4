"""Filter (fault injection) and Mock (TCP fallback)."""

import pytest

from repro.analysis import Filter, Mock
from repro.analysis.faultfilter import FaultRule
from repro.sim import MICROS, MILLIS, SECONDS
from tests.conftest import run_process
from tests.xrdma.conftest import connect_pair


def test_filter_drops_messages(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster)
    server.filter = Filter(cluster.rng.stream("faults"))
    server.filter.add_rule(FaultRule(drop_probability=1.0))

    for _ in range(5):
        client.send_msg(client_ch, 64)
    cluster.sim.run(until=cluster.sim.now + 50 * MILLIS)

    assert server.filter.dropped == 5
    assert len(server.incoming.items) == 0


def test_filter_delays_messages(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster)
    server.filter = Filter(cluster.rng.stream("faults"))
    server.filter.add_rule(FaultRule(delay_ns=5 * MILLIS))

    def scenario():
        t0 = cluster.sim.now
        client.send_msg(client_ch, 64)
        yield server.incoming.get()
        return cluster.sim.now - t0

    elapsed = run_process(cluster, scenario(), limit=2 * SECONDS)
    assert elapsed >= 5 * MILLIS
    assert server.filter.delayed == 1


def test_filter_rule_scoped_to_channel(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster)
    server.filter = Filter(cluster.rng.stream("faults"))
    server.filter.add_rule(FaultRule(drop_probability=1.0,
                                     channel_id=999_999))  # matches nothing

    def scenario():
        client.send_msg(client_ch, 64)
        yield server.incoming.get()

    run_process(cluster, scenario(), limit=2 * SECONDS)
    assert server.filter.dropped == 0


def test_filter_disable_online(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster)
    server.filter = Filter(cluster.rng.stream("faults"))
    rule = server.filter.add_rule(FaultRule(drop_probability=1.0))
    rule.enabled = False

    def scenario():
        client.send_msg(client_ch, 64)
        yield server.incoming.get()

    run_process(cluster, scenario(), limit=2 * SECONDS)
    assert server.filter.dropped == 0


def test_mock_routes_messages_over_tcp(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster)
    mock = Mock(cluster)

    def scenario():
        yield from mock.engage(client, client_ch, server, server_ch)
        msg = client.send_msg(client_ch, 4096, payload="via-tcp")
        incoming = yield server.incoming.get()
        return msg, incoming

    msg, incoming = run_process(cluster, scenario(), limit=2 * SECONDS)
    assert incoming.payload == "via-tcp"
    assert mock.is_engaged(client_ch)
    # The detour is a strategy under the channel, not a bypass around it:
    # the message took a seq-ack window slot like any other (this used to
    # pin ``== 0``, "the RDMA window saw none of it").
    assert client_ch.window.seq == 1


def test_mock_supports_rpc(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster)
    mock = Mock(cluster)

    def scenario():
        yield from mock.engage(client, client_ch, server, server_ch)
        request = client.send_request(client_ch, 128, payload="ping")
        incoming = yield server.incoming.get()
        server.send_response(incoming, 64, payload="pong")
        response = yield request.response
        return response

    response = run_process(cluster, scenario(), limit=2 * SECONDS)
    assert response.payload == "pong"


def test_mock_disengage_restores_rdma(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster)
    mock = Mock(cluster)

    def scenario():
        yield from mock.engage(client, client_ch, server, server_ch)
        client.send_msg(client_ch, 64)
        yield server.incoming.get()
        mock.disengage(client_ch)
        mock.disengage(server_ch)
        client.send_msg(client_ch, 64)
        yield server.incoming.get()

    run_process(cluster, scenario(), limit=2 * SECONDS)
    # One sequence space across the switch: the TCP message took seq 0,
    # the RDMA one seq 1 (was ``== 1`` while the detour skipped the window).
    assert client_ch.window.seq == 2
    assert not mock.is_engaged(client_ch)


def test_mock_is_slower_than_rdma(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster)
    mock = Mock(cluster)

    size = 64 * 1024   # large enough that TCP's copy costs dominate

    def rdma_rtt():
        t0 = cluster.sim.now
        msg = client.send_msg(client_ch, size)
        yield server.incoming.get()
        return cluster.sim.now - t0

    rdma = run_process(cluster, rdma_rtt(), limit=2 * SECONDS)

    def tcp_rtt():
        yield from mock.engage(client, client_ch, server, server_ch)
        t0 = cluster.sim.now
        client.send_msg(client_ch, size)
        yield server.incoming.get()
        return cluster.sim.now - t0

    tcp = run_process(cluster, tcp_rtt(), limit=2 * SECONDS)
    assert tcp > rdma
