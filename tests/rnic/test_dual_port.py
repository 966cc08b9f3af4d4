"""Dual-port RNICs (Sec. VII: dual-port 25 Gbps CX4-Lx per machine)."""

from statistics import mean

import pytest

from repro.rnic import Opcode, WorkRequest
from repro.sim import MILLIS, SECONDS
from tests.conftest import build_cluster, establish, run_process


def _bulk_throughput(nic_ports: int, flows: int) -> float:
    """Aggregate Gbps of ``flows`` bulk WRITE streams from host 0."""
    cluster = build_cluster(1 + flows, nic_ports=nic_ports)
    sender = cluster.host(0)
    sim = cluster.sim
    size = 2 << 20
    conns = [establish(cluster, 0, dst + 1, service_port=7000)
             for dst in range(flows)]

    def stream(conn_c, conn_s, dst):
        host = cluster.host(dst + 1)
        buf = host.memory.alloc(size)
        mr = yield host.verbs.reg_mr(conn_s.qp.pd, buf.addr, buf.length)
        for _ in range(4):
            yield sender.verbs.post_send(conn_c.qp, WorkRequest(
                opcode=Opcode.WRITE, length=size, remote_addr=mr.addr,
                rkey=mr.rkey))
        done = 0
        while done < 4:
            done += len(conn_c.qp.send_cq.poll())
            yield sim.timeout(10_000)

    t0 = sim.now
    procs = [sim.spawn(stream(conn_c, conn_s, dst))
             for dst, (conn_c, conn_s) in enumerate(conns)]
    sim.run_until_event(sim.all_of(procs), limit=60 * SECONDS)
    total_bits = flows * 4 * size * 8
    return total_bits / (sim.now - t0)


def test_second_port_doubles_aggregate_bandwidth():
    single = _bulk_throughput(nic_ports=1, flows=4)
    dual = _bulk_throughput(nic_ports=2, flows=4)
    # Four flows hash over two ports: aggregate should rise well past one
    # link's worth (25 Gbps) toward two.
    assert single < 26.0
    assert dual > single * 1.5


def test_single_flow_stays_in_order_on_dual_port(cluster):
    cluster2 = build_cluster(2, nic_ports=2)
    conn_c, conn_s = establish(cluster2, 0, 1)
    client, server = cluster2.host(0), cluster2.host(1)

    def scenario():
        for _ in range(10):
            yield server.verbs.post_recv(conn_s.qp, WorkRequest(
                opcode=Opcode.RECV, length=4096))
        for index in range(10):
            yield client.verbs.post_send(conn_c.qp, WorkRequest(
                opcode=Opcode.SEND, length=100 + index, signaled=False))
        got = []
        while len(got) < 10:
            got.extend(conn_s.qp.recv_cq.poll())
            yield cluster2.sim.timeout(1000)
        return [c.byte_len for c in got]

    sizes = run_process(cluster2, scenario(), limit=10 * SECONDS)
    assert sizes == [100 + i for i in range(10)]


def test_pfc_gates_ports_independently():
    cluster = build_cluster(2, nic_ports=2)
    nic = cluster.host(0).nic
    assert len(nic.uplinks) == 2
    nic.pause_port(1, True)
    assert not nic.uplinks[0].paused
    assert nic.uplinks[1].paused
    nic.pause_port(1, False)
    assert not nic.uplinks[1].paused


def test_extra_port_requires_primary():
    cluster = build_cluster(2)
    from repro.net.hosts import SimpleHost
    stranger = SimpleHost(99)
    with pytest.raises(ValueError):
        cluster.topology.attach_extra_port(1, stranger, 1)


def test_destroyed_qp_releases_its_port_pin():
    """A flow's port pin dies with its QP: new flows balance against live
    flows only, and the pin table does not grow with every QP ever made."""
    cluster = build_cluster(2, nic_ports=2)
    host = cluster.host(0)
    nic = host.nic
    pd = host.verbs.alloc_pd()
    cq = host.verbs.create_cq()

    def create(count):
        qps = []
        for _ in range(count):
            qps.append((yield host.verbs.create_qp(pd, cq, cq)))
        return qps

    def destroy(doomed):
        for qp in doomed:
            yield host.verbs.destroy_qp(qp)

    def port_of(qp):
        flow = (nic.host_id << 20) | qp.qpn
        return nic.uplinks.index(nic._uplink_for(flow))

    qps = run_process(cluster, create(4))
    assert [port_of(qp) for qp in qps] == [0, 1, 0, 1]
    run_process(cluster, destroy([qps[0], qps[2]]))
    fresh = run_process(cluster, create(2))
    assert [port_of(qp) for qp in fresh] == [0, 0]
    assert len(nic._flow_ports) == 4


def _tx_run_pops(nic_ports: int) -> int:
    """``Rnic._tx_run`` pops of 200 closed-loop 64 B round trips driven
    by ``request_loop`` (the fleet's rpc-latency driver)."""
    from repro.workloads.flows import request_loop
    cluster = build_cluster(2, nic_ports=nic_ports)
    audit = cluster.sim.enable_tie_audit()
    client = cluster.xrdma_context(0)
    server = cluster.xrdma_context(1)
    accepted = server.listen(9980)

    def scenario():
        channel = yield from client.connect(1, 9980)
        server_channel = yield accepted.get()
        server_channel.on_request = \
            lambda msg: server.send_response(msg, 64)
        yield from request_loop(client, channel, 64, 200, [])
        yield from client.close_channel(channel)

    run_process(cluster, scenario(), limit=60 * SECONDS)
    return audit.owners["Rnic._tx_run"]


def test_enqueued_job_wakes_one_idle_engine():
    # A job needs one engine: a second port costs its start, once per
    # NIC, not a wake per job (806 pops against 403 when every idle
    # engine woke).
    assert _tx_run_pops(2) == _tx_run_pops(1) + 2
