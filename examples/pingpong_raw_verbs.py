"""The same ping-pong as ``quickstart.py``, written against raw verbs.

This is the "complex ritual" of Sec. II-A: allocate a PD, register memory,
create CQs and a QP, walk the QP state machine through the rdma_cm
handshake, pre-post receives, post sends, poll completions, replenish
receive buffers — all by hand, per connection.

Run:  python examples/pingpong_raw_verbs.py
"""

from repro.cluster import build_cluster
from repro.rnic import AccessFlags, Opcode, WorkRequest
from repro.sim import SECONDS

ITERATIONS = 100
SIZE = 64
RECV_DEPTH = 16


def main():
    cluster = build_cluster(n_hosts=2)
    client_host = cluster.host(0)
    server_host = cluster.host(1)
    sim = cluster.sim
    latencies = []

    # ---- server side: PD, CQ, MR, listener ------------------------------
    server_pd = server_host.verbs.alloc_pd()
    server_cq = server_host.verbs.create_cq(depth=256)
    listener = server_host.cm.listen(7000, server_pd, server_cq, server_cq)

    def server_loop():
        # Register a buffer pool by hand.
        pool = server_host.memory.alloc(RECV_DEPTH * (SIZE + 64))
        pool_mr = yield server_host.verbs.reg_mr(server_pd, pool.addr,
                                                 pool.length,
                                                 AccessFlags.all_remote())
        conn = yield listener.accepted.get()
        qp = conn.qp
        # Pre-post the receive ring.
        for slot in range(RECV_DEPTH):
            yield server_host.verbs.post_recv(qp, WorkRequest(
                opcode=Opcode.RECV, length=SIZE + 64,
                local_addr=pool.addr + slot * (SIZE + 64)))
        served = 0
        while served < ITERATIONS:
            completions = server_host.verbs.poll_cq(qp.recv_cq, 16)
            if not completions:
                yield sim.timeout(200)
                continue
            for completion in completions:
                if completion.opcode is not Opcode.RECV:
                    continue
                served += 1
                # Replenish the consumed receive before answering.
                yield server_host.verbs.post_recv(qp, WorkRequest(
                    opcode=Opcode.RECV, length=SIZE + 64,
                    local_addr=completion.addr))
                yield server_host.verbs.post_send(qp, WorkRequest(
                    opcode=Opcode.SEND, length=completion.byte_len,
                    signaled=False))
        # Teardown is part of the ritual too: deregister, then free.
        yield server_host.verbs.dereg_mr(server_pd, pool_mr)
        server_host.memory.free(pool.addr)

    # ---- client side: PD, CQ, MR, connect, ping loop ---------------------
    client_pd = client_host.verbs.alloc_pd()
    client_cq = client_host.verbs.create_cq(depth=256)

    def client_loop():
        send_buf = client_host.memory.alloc(SIZE)
        send_mr = yield client_host.verbs.reg_mr(client_pd, send_buf.addr,
                                                 send_buf.length,
                                                 AccessFlags.all_remote())
        recv_pool = client_host.memory.alloc(RECV_DEPTH * (SIZE + 64))
        recv_mr = yield client_host.verbs.reg_mr(client_pd, recv_pool.addr,
                                                 recv_pool.length,
                                                 AccessFlags.all_remote())
        conn = yield from client_host.cm.connect(
            1, 7000, client_pd, client_cq, client_cq)
        qp = conn.qp
        for slot in range(RECV_DEPTH):
            yield client_host.verbs.post_recv(qp, WorkRequest(
                opcode=Opcode.RECV, length=SIZE + 64,
                local_addr=recv_pool.addr + slot * (SIZE + 64)))
        for _ in range(ITERATIONS):
            t0 = sim.now
            yield client_host.verbs.post_send(qp, WorkRequest(
                opcode=Opcode.SEND, length=SIZE,
                local_addr=send_buf.addr, signaled=False))
            # Spin on the CQ for the pong.
            while True:
                completions = client_host.verbs.poll_cq(qp.recv_cq, 16)
                if completions:
                    break
                yield sim.timeout(200)
            yield client_host.verbs.post_recv(qp, WorkRequest(
                opcode=Opcode.RECV, length=SIZE + 64,
                local_addr=completions[0].addr))
            latencies.append((sim.now - t0) / 2)
        # Release in reverse order of the setup ritual.
        yield client_host.verbs.dereg_mr(client_pd, recv_mr)
        yield client_host.verbs.dereg_mr(client_pd, send_mr)
        client_host.memory.free(recv_pool.addr)
        client_host.memory.free(send_buf.addr)

    sim.spawn(server_loop())
    done = sim.spawn(client_loop())
    sim.run_until_event(done, limit=60 * SECONDS)

    mean_us = sum(latencies) / len(latencies) / 1000
    print(f"{ITERATIONS} ping-pongs of {SIZE} B over raw verbs")
    print(f"mean one-way latency: {mean_us:.2f} us")


if __name__ == "__main__":
    main()
