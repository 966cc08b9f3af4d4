"""RC protocol behaviour: send/recv, one-sided ops, RNR, retransmission."""

import pytest

from repro.rnic import Opcode, WorkRequest, WrStatus
from repro.rnic.qp import QpStateError
from repro.sim import MICROS, MILLIS, SECONDS
from tests.conftest import Cluster, build_cluster, establish, run_process


@pytest.fixture
def pair(cluster):
    """An established client/server connection plus their hosts."""
    conn_c, conn_s = establish(cluster, 0, 1)
    return cluster, conn_c, conn_s


def _poll_until(cluster, cq, n=1, limit=2 * SECONDS):
    """Process: poll ``cq`` until ``n`` completions have arrived."""
    got = []

    def poller():
        while len(got) < n:
            got.extend(cq.poll())
            if len(got) >= n:
                break
            yield cluster.sim.timeout(1 * MICROS)
        return got

    return run_process(cluster, poller(), limit=limit)


def test_send_recv_roundtrip(pair):
    cluster, conn_c, conn_s = pair
    client, server = cluster.host(0), cluster.host(1)

    def scenario():
        yield server.verbs.post_recv(conn_s.qp, WorkRequest(
            opcode=Opcode.RECV, length=4096, local_addr=0x9000))
        yield client.verbs.post_send(conn_c.qp, WorkRequest(
            opcode=Opcode.SEND, length=512, local_addr=0x1000))

    run_process(cluster, scenario())
    completions = _poll_until(cluster, conn_s.qp.recv_cq)
    assert completions[0].ok
    assert completions[0].opcode is Opcode.RECV
    assert completions[0].byte_len == 512
    assert completions[0].addr == 0x9000


def test_send_generates_sender_completion_on_ack(pair):
    cluster, conn_c, conn_s = pair
    client, server = cluster.host(0), cluster.host(1)

    def scenario():
        yield server.verbs.post_recv(conn_s.qp, WorkRequest(
            opcode=Opcode.RECV, length=4096))
        yield client.verbs.post_send(conn_c.qp, WorkRequest(
            opcode=Opcode.SEND, length=128))

    run_process(cluster, scenario())
    completions = _poll_until(cluster, conn_c.qp.send_cq)
    assert completions[0].ok
    assert completions[0].opcode is Opcode.SEND


def test_send_imm_delivers_immediate(pair):
    cluster, conn_c, conn_s = pair
    client, server = cluster.host(0), cluster.host(1)

    def scenario():
        yield server.verbs.post_recv(conn_s.qp, WorkRequest(
            opcode=Opcode.RECV, length=4096))
        yield client.verbs.post_send(conn_c.qp, WorkRequest(
            opcode=Opcode.SEND_IMM, length=64, imm_data=0xBEEF))

    run_process(cluster, scenario())
    completions = _poll_until(cluster, conn_s.qp.recv_cq)
    assert completions[0].imm_data == 0xBEEF
    assert completions[0].opcode is Opcode.RECV_IMM


def test_send_without_recv_raises_rnr_then_recovers(pair):
    cluster, conn_c, conn_s = pair
    client, server = cluster.host(0), cluster.host(1)

    def sender():
        yield client.verbs.post_send(conn_c.qp, WorkRequest(
            opcode=Opcode.SEND, length=256))

    run_process(cluster, sender())
    # Let the first attempt hit the empty RQ.
    cluster.sim.run(until=cluster.sim.now + 50 * MICROS)
    assert cluster.stats.rnr_naks >= 1

    def late_recv():
        yield server.verbs.post_recv(conn_s.qp, WorkRequest(
            opcode=Opcode.RECV, length=4096))

    run_process(cluster, late_recv())
    completions = _poll_until(cluster, conn_s.qp.recv_cq)
    assert completions[0].ok
    assert completions[0].byte_len == 256
    # Sender eventually completes too.
    sends = _poll_until(cluster, conn_c.qp.send_cq)
    assert sends[0].ok


def test_rnr_retries_exceeded_moves_qp_to_error(pair):
    cluster, conn_c, conn_s = pair
    client = cluster.host(0)

    def sender():
        yield client.verbs.post_send(conn_c.qp, WorkRequest(
            opcode=Opcode.SEND, length=256))

    run_process(cluster, sender())
    completions = _poll_until(cluster, conn_c.qp.send_cq, limit=30 * SECONDS)
    assert completions[0].status is WrStatus.RNR_RETRY_EXCEEDED
    from repro.rnic import QpState
    assert conn_c.qp.state is QpState.ERROR


def test_write_completes_silently_at_receiver(pair):
    cluster, conn_c, conn_s = pair
    client, server = cluster.host(0), cluster.host(1)

    def scenario():
        buf = server.memory.alloc(8192)
        mr = yield server.verbs.reg_mr(conn_s.qp.pd, buf.addr, buf.length)
        yield client.verbs.post_send(conn_c.qp, WorkRequest(
            opcode=Opcode.WRITE, length=4096, remote_addr=mr.addr,
            rkey=mr.rkey))

    run_process(cluster, scenario())
    completions = _poll_until(cluster, conn_c.qp.send_cq)
    assert completions[0].ok
    assert len(conn_s.qp.recv_cq) == 0  # memory semantics: no receiver CQE


def test_write_imm_consumes_recv_and_notifies(pair):
    cluster, conn_c, conn_s = pair
    client, server = cluster.host(0), cluster.host(1)

    def scenario():
        buf = server.memory.alloc(8192)
        mr = yield server.verbs.reg_mr(conn_s.qp.pd, buf.addr, buf.length)
        yield server.verbs.post_recv(conn_s.qp, WorkRequest(
            opcode=Opcode.RECV, length=8192))
        yield client.verbs.post_send(conn_c.qp, WorkRequest(
            opcode=Opcode.WRITE_IMM, length=1024, remote_addr=mr.addr,
            rkey=mr.rkey, imm_data=42))

    run_process(cluster, scenario())
    completions = _poll_until(cluster, conn_s.qp.recv_cq)
    assert completions[0].imm_data == 42
    assert completions[0].byte_len == 1024


def test_write_with_bad_rkey_is_fatal(pair):
    cluster, conn_c, conn_s = pair
    client = cluster.host(0)

    def scenario():
        yield client.verbs.post_send(conn_c.qp, WorkRequest(
            opcode=Opcode.WRITE, length=1024, remote_addr=0xDEAD,
            rkey=0x666))

    run_process(cluster, scenario())
    completions = _poll_until(cluster, conn_c.qp.send_cq)
    assert completions[0].status is WrStatus.REMOTE_ACCESS_ERROR


def test_write_out_of_bounds_is_fatal(pair):
    cluster, conn_c, conn_s = pair
    client, server = cluster.host(0), cluster.host(1)

    def scenario():
        buf = server.memory.alloc(4096)
        mr = yield server.verbs.reg_mr(conn_s.qp.pd, buf.addr, buf.length)
        yield client.verbs.post_send(conn_c.qp, WorkRequest(
            opcode=Opcode.WRITE, length=8192, remote_addr=mr.addr,
            rkey=mr.rkey))

    run_process(cluster, scenario())
    completions = _poll_until(cluster, conn_c.qp.send_cq)
    assert completions[0].status is WrStatus.REMOTE_ACCESS_ERROR


def test_read_fetches_remote_data(pair):
    cluster, conn_c, conn_s = pair
    client, server = cluster.host(0), cluster.host(1)

    def scenario():
        buf = server.memory.alloc(1 << 20)
        mr = yield server.verbs.reg_mr(conn_s.qp.pd, buf.addr, buf.length)
        yield client.verbs.post_send(conn_c.qp, WorkRequest(
            opcode=Opcode.READ, length=64 * 1024, remote_addr=mr.addr,
            rkey=mr.rkey))

    run_process(cluster, scenario())
    completions = _poll_until(cluster, conn_c.qp.send_cq)
    assert completions[0].ok
    assert completions[0].opcode is Opcode.READ
    assert completions[0].byte_len == 64 * 1024


def test_read_with_bad_rkey_fails_quietly_for_receiver(pair):
    cluster, conn_c, conn_s = pair
    client = cluster.host(0)

    def scenario():
        yield client.verbs.post_send(conn_c.qp, WorkRequest(
            opcode=Opcode.READ, length=4096, remote_addr=0xDEAD, rkey=0x99))

    run_process(cluster, scenario())
    completions = _poll_until(cluster, conn_c.qp.send_cq)
    assert completions[0].status is WrStatus.REMOTE_ACCESS_ERROR


def test_lost_read_request_is_reissued_by_the_watchdog(pair):
    """The responder is deaf for 1 ms, so the first READ_REQ vanishes; the
    requester's watchdog re-issues it (the same emit path as the first
    try) and the READ completes once."""
    cluster, conn_c, conn_s = pair
    client, server = cluster.host(0), cluster.host(1)

    def register():
        buf = server.memory.alloc(1 << 20)
        return (yield server.verbs.reg_mr(conn_s.qp.pd, buf.addr,
                                          buf.length))

    mr = run_process(cluster, register())
    server.nic.alive = False
    cluster.sim.call_after(1 * MILLIS,
                           lambda: setattr(server.nic, "alive", True))

    def scenario():
        yield client.verbs.post_send(conn_c.qp, WorkRequest(
            opcode=Opcode.READ, length=64 * 1024, remote_addr=mr.addr,
            rkey=mr.rkey))

    run_process(cluster, scenario())
    completions = _poll_until(cluster, conn_c.qp.send_cq)
    assert cluster.sim.now > cluster.params.rc_retransmit_timeout_ns
    cluster.sim.run(until=cluster.sim.now + 50 * MILLIS)
    completions += conn_c.qp.send_cq.poll()
    assert [(c.status, c.opcode, c.byte_len) for c in completions] == [
        (WrStatus.SUCCESS, Opcode.READ, 64 * 1024)]
    assert cluster.stats.retransmissions == 1
    assert not conn_c.qp.reads_in_flight


def test_zero_byte_write_needs_no_rkey_or_recv(pair):
    """The keepAlive probe: zero-payload WRITE, ACKed by hardware alone."""
    cluster, conn_c, conn_s = pair
    client = cluster.host(0)

    def scenario():
        yield client.verbs.post_send(conn_c.qp, WorkRequest(
            opcode=Opcode.WRITE, length=0, remote_addr=0, rkey=1))

    run_process(cluster, scenario())
    completions = _poll_until(cluster, conn_c.qp.send_cq)
    assert completions[0].ok
    assert cluster.stats.rnr_naks == 0


def test_large_message_fragments_and_reassembles(pair):
    cluster, conn_c, conn_s = pair
    client, server = cluster.host(0), cluster.host(1)
    size = 300 * 1024  # 75 MTU-sized fragments

    def scenario():
        yield server.verbs.post_recv(conn_s.qp, WorkRequest(
            opcode=Opcode.RECV, length=size))
        yield client.verbs.post_send(conn_c.qp, WorkRequest(
            opcode=Opcode.SEND, length=size))

    run_process(cluster, scenario())
    completions = _poll_until(cluster, conn_s.qp.recv_cq)
    assert completions[0].byte_len == size
    # 75 fragments consumed 75 PSNs.
    assert conn_c.qp.send_psn == -(-size // cluster.params.mtu_bytes)


def test_crashed_peer_causes_retry_exceeded(pair):
    cluster, conn_c, conn_s = pair
    client, server = cluster.host(0), cluster.host(1)
    server.nic.crash()

    def scenario():
        yield client.verbs.post_send(conn_c.qp, WorkRequest(
            opcode=Opcode.SEND, length=128))

    run_process(cluster, scenario())
    completions = _poll_until(cluster, conn_c.qp.send_cq, limit=60 * SECONDS)
    assert completions[0].status is WrStatus.RETRY_EXCEEDED
    assert cluster.stats.retransmissions > 0


def test_sq_depth_limit_enforced(pair):
    cluster, conn_c, conn_s = pair
    qp = conn_c.qp
    qp.sq_depth = 4
    for _ in range(4):
        qp.post_send(WorkRequest(opcode=Opcode.SEND, length=8))
    with pytest.raises(QpStateError):
        qp.post_send(WorkRequest(opcode=Opcode.SEND, length=8))


def test_rq_depth_limit_enforced(pair):
    cluster, conn_c, conn_s = pair
    qp = conn_s.qp
    qp.rq_depth = 2
    qp.post_recv(WorkRequest(opcode=Opcode.RECV, length=64))
    qp.post_recv(WorkRequest(opcode=Opcode.RECV, length=64))
    with pytest.raises(QpStateError):
        qp.post_recv(WorkRequest(opcode=Opcode.RECV, length=64))


def test_multiple_messages_complete_in_order(pair):
    cluster, conn_c, conn_s = pair
    client, server = cluster.host(0), cluster.host(1)

    def scenario():
        for _ in range(8):
            yield server.verbs.post_recv(conn_s.qp, WorkRequest(
                opcode=Opcode.RECV, length=4096))
        for i in range(8):
            yield client.verbs.post_send(conn_c.qp, WorkRequest(
                opcode=Opcode.SEND, length=100 + i))

    run_process(cluster, scenario())
    completions = _poll_until(cluster, conn_s.qp.recv_cq, n=8)
    assert [c.byte_len for c in completions] == [100 + i for i in range(8)]


def test_unsignaled_send_generates_no_cqe(pair):
    cluster, conn_c, conn_s = pair
    client, server = cluster.host(0), cluster.host(1)

    def scenario():
        yield server.verbs.post_recv(conn_s.qp, WorkRequest(
            opcode=Opcode.RECV, length=4096))
        yield client.verbs.post_send(conn_c.qp, WorkRequest(
            opcode=Opcode.SEND, length=64, signaled=False))

    run_process(cluster, scenario())
    _poll_until(cluster, conn_s.qp.recv_cq)  # receiver still completes
    cluster.sim.run(until=cluster.sim.now + 1 * MILLIS)
    assert len(conn_c.qp.send_cq) == 0


def test_qp_cache_records_hits_and_misses(pair):
    cluster, conn_c, conn_s = pair
    client, server = cluster.host(0), cluster.host(1)

    def scenario():
        yield server.verbs.post_recv(conn_s.qp, WorkRequest(
            opcode=Opcode.RECV, length=4096))
        yield client.verbs.post_send(conn_c.qp, WorkRequest(
            opcode=Opcode.SEND, length=64))
        yield server.verbs.post_recv(conn_s.qp, WorkRequest(
            opcode=Opcode.RECV, length=4096))
        yield client.verbs.post_send(conn_c.qp, WorkRequest(
            opcode=Opcode.SEND, length=64))

    run_process(cluster, scenario())
    _poll_until(cluster, conn_s.qp.recv_cq, n=2)
    assert client.nic.cache_misses >= 1
    assert client.nic.cache_hits >= 1


def test_loopback_to_same_host(cluster):
    conn_a, conn_b = establish(cluster, 0, 0)
    host = cluster.host(0)

    def scenario():
        yield host.verbs.post_recv(conn_b.qp, WorkRequest(
            opcode=Opcode.RECV, length=4096))
        yield host.verbs.post_send(conn_a.qp, WorkRequest(
            opcode=Opcode.SEND, length=333))

    run_process(cluster, scenario())
    completions = _poll_until(cluster, conn_b.qp.recv_cq)
    assert completions[0].byte_len == 333


def test_zero_byte_read_gets_one_empty_response(pair, monkeypatch):
    """Verbs allows a 0-byte READ: the responder answers at once with one
    empty last READ_RESP and moves no data."""
    cluster, conn_c, conn_s = pair
    client = cluster.host(0)
    responses = []
    rx_read_response = client.nic._rx_read_response

    def counting(packet):
        responses.append(packet.length)
        rx_read_response(packet)

    monkeypatch.setattr(client.nic, "_rx_read_response", counting)
    delivered = cluster.stats.data_bytes_delivered

    def scenario():
        yield client.verbs.post_send(conn_c.qp, WorkRequest(
            opcode=Opcode.READ, length=0, remote_addr=0, rkey=1))

    run_process(cluster, scenario())
    completions = _poll_until(cluster, conn_c.qp.send_cq)
    cluster.sim.run(until=cluster.sim.now + 10 * MILLIS)
    completions += conn_c.qp.send_cq.poll()
    assert [(c.status, c.opcode, c.byte_len) for c in completions] == [
        (WrStatus.SUCCESS, Opcode.READ, 0)]
    assert responses == [0]
    assert cluster.stats.data_bytes_delivered == delivered
    assert not conn_c.qp.reads_in_flight
