"""Connection-manager behaviour: handshake, costs, rejection, churn."""

import pytest

from repro.rnic import QpState
from repro.sim import MICROS, MILLIS, SECONDS
from repro.verbs import ConnectError
from tests.conftest import build_cluster, establish, run_process


def test_connect_accept_yields_established_qps(cluster):
    conn_c, conn_s = establish(cluster, 0, 1)
    assert conn_c.qp.state is QpState.RTS
    assert conn_s.qp.state is QpState.RTS
    assert conn_c.qp.remote_qpn == conn_s.qp.qpn
    assert conn_s.qp.remote_qpn == conn_c.qp.qpn
    assert conn_c.remote_host == 1
    assert conn_s.remote_host == 0


def test_private_data_flows_both_ways(cluster):
    server = cluster.host(1)
    client = cluster.host(0)
    s_pd = server.verbs.alloc_pd()
    s_cq = server.verbs.create_cq()
    listener = server.cm.listen(7000, s_pd, s_cq, s_cq,
                                private_data={"srv": "meta"})
    c_pd = client.verbs.alloc_pd()
    c_cq = client.verbs.create_cq()

    def connector():
        conn = yield from client.cm.connect(
            1, 7000, c_pd, c_cq, c_cq, private_data={"cli": 7})
        server_conn = yield listener.accepted.get()
        return conn, server_conn

    conn, server_conn = run_process(cluster, connector())
    assert conn.private_data == {"srv": "meta"}
    assert server_conn.private_data == {"cli": 7}


def test_establishment_cost_is_milliseconds(cluster):
    t0 = cluster.sim.now
    establish(cluster, 0, 1)
    elapsed_us = (cluster.sim.now - t0) / 1000
    # Paper (Sec. VII-C): ≈3946 µs without the QP cache.
    assert 2500 < elapsed_us < 5500


def test_recycled_qp_cuts_establishment_time(cluster):
    client, server = cluster.host(0), cluster.host(1)
    c_pd = client.verbs.alloc_pd()
    c_cq = client.verbs.create_cq()
    s_pd = server.verbs.alloc_pd()
    s_cq = server.verbs.create_cq()
    listener = server.cm.listen(7000, s_pd, s_cq, s_cq)

    # Warm path: create a QP up front, reset it, then connect with it.
    def prepare():
        qp = yield client.verbs.create_qp(c_pd, c_cq, c_cq)
        qp.reset()
        return qp

    recycled = run_process(cluster, prepare())

    t0 = cluster.sim.now

    def fresh_connect():
        conn = yield from client.cm.connect(1, 7000, c_pd, c_cq, c_cq)
        yield listener.accepted.get()
        return conn

    run_process(cluster, fresh_connect())
    fresh_cost = cluster.sim.now - t0

    t1 = cluster.sim.now

    def cached_connect():
        conn = yield from client.cm.connect(1, 7001, c_pd, c_cq, c_cq,
                                            qp=recycled)
        return conn

    listener2 = server.cm.listen(7001, s_pd, s_cq, s_cq)
    run_process(cluster, cached_connect())
    cached_cost = cluster.sim.now - t1
    assert cached_cost < fresh_cost
    # The QP-create (~900 µs) is the dominant saving.
    assert fresh_cost - cached_cost > 500 * MICROS


def test_connect_unlistened_port_rejected(cluster):
    client = cluster.host(0)
    c_pd = client.verbs.alloc_pd()
    c_cq = client.verbs.create_cq()

    def connector():
        yield from client.cm.connect(1, 9999, c_pd, c_cq, c_cq)

    with pytest.raises(ConnectError, match="rejected"):
        run_process(cluster, connector())


def test_connect_to_crashed_host_times_out(cluster):
    cluster.host(1).nic.crash()
    client = cluster.host(0)
    c_pd = client.verbs.alloc_pd()
    c_cq = client.verbs.create_cq()

    def connector():
        yield from client.cm.connect(1, 7000, c_pd, c_cq, c_cq,
                                     timeout_ns=50 * MILLIS)

    with pytest.raises(ConnectError, match="timed out"):
        run_process(cluster, connector())


def test_duplicate_listen_rejected(cluster):
    server = cluster.host(1)
    pd = server.verbs.alloc_pd()
    cq = server.verbs.create_cq()
    server.cm.listen(7000, pd, cq, cq)
    with pytest.raises(ValueError):
        server.cm.listen(7000, pd, cq, cq)


def test_connection_churn_leaves_no_per_connection_record(cluster):
    """200 connect -> close cycles on one pair (the middleware closes with
    a CLOSE header and a QP reset): the agents' state scales with live
    connections, not with connections ever made."""
    client, server = cluster.xrdma_context(0), cluster.xrdma_context(1)
    server.listen(9000)

    def churn():
        for _ in range(200):
            channel = yield from client.connect(1, 9000)
            yield from client.close_channel(channel)
        yield cluster.sim.timeout(50 * MILLIS)

    run_process(cluster, churn())
    for ctx in (client, server):
        assert ctx.cm.established == 200 and not ctx.channels
        grown = {name: len(value) for name, value in vars(ctx.cm).items()
                 if hasattr(value, "__len__") and len(value) > 1}
        assert grown == {}, f"{ctx.name}: CM state grew with the churn"


def test_many_connections_one_listener(cluster):
    server = cluster.host(3)
    s_pd = server.verbs.alloc_pd()
    s_cq = server.verbs.create_cq()
    listener = server.cm.listen(7000, s_pd, s_cq, s_cq)
    conns = []

    def connector(client_id):
        client = cluster.host(client_id)
        pd = client.verbs.alloc_pd()
        cq = client.verbs.create_cq()
        conn = yield from client.cm.connect(3, 7000, pd, cq, cq)
        conns.append(conn)

    for cid in (0, 1, 2):
        cluster.sim.spawn(connector(cid))
    cluster.sim.run(until=cluster.sim.now + 1 * SECONDS)
    assert len(conns) == 3
    assert len(listener.accepted.items) == 3
    assert server.cm.established == 3
