"""Yield-point races on the channel send/rendezvous/control paths.

Each test pins one of the stale-state defects this PR fixed, using a
controlled preemption window (a wrapped ``memcache.alloc`` that yields
deterministically, or an injected post failure) so the race fires on
every run.  On the pre-fix code each test fails with leaked MemCache
bytes, rendezvous state installed on a BROKEN channel, or phantom ack
bookkeeping.
"""

from repro.sim import MILLIS
from repro.xrdma.channel import ChannelBroken
from repro.xrdma.message import MessageKind
from tests.conftest import run_process
from tests.scenarios.conftest import assert_quiescent, settle
from tests.xrdma.conftest import connect_pair, make_context

LARGE = 256 * 1024


def _slow_alloc(cluster, ctx, entered):
    """Wrap ``ctx.memcache.alloc`` with a deterministic preemption window
    so another process can run between the alloc and its caller's resume
    (memcache only yields on arena growth, which connect priming already
    paid for — this restores the race window the defect needs)."""
    real_alloc = ctx.memcache.alloc

    def alloc(size):
        entered.append(size)
        yield cluster.sim.timeout(50_000)
        buffer = yield from real_alloc(size)
        return buffer

    ctx.memcache.alloc = alloc
    return real_alloc


def _break_when(cluster, entered, channel, reason):
    def breaker():
        while not entered:
            yield cluster.sim.timeout(1_000)
        channel.mark_broken(reason)

    run_process(cluster, breaker())


def _prime_break_pair(cluster, port, slow_side):
    """Two contexts, ``server`` listening; the ``slow_side`` one primes
    through the slow alloc and records every channel it creates, so a
    breaker can reach a channel that is not in ``ctx.channels`` yet."""
    client, server = make_context(cluster, 0), make_context(cluster, 1)
    server.listen(port)
    ctx = client if slow_side == "client" else server
    entered, created = [], []
    _slow_alloc(cluster, ctx, entered)
    real_new_channel = ctx._new_channel

    def new_channel(conn):
        created.append(real_new_channel(conn))
        return created[-1]

    ctx._new_channel = new_channel

    def connector():
        try:
            channel = yield from client.connect(1, port)
        except ChannelBroken:
            return None
        return channel

    def breaker():
        while not (entered and created):
            yield cluster.sim.timeout(1_000)
        created[-1].mark_broken("injected during prime")

    connecting = cluster.sim.spawn(connector())
    run_process(cluster, breaker())
    settle(cluster, 500 * MILLIS)
    assert connecting.triggered
    return client, server, created[-1], connecting.value


def test_connect_raises_when_the_channel_breaks_mid_prime(cluster):
    """Active side: the channel dies during a ``memcache.alloc`` yield of
    ``_prime_channel``.  ``connect`` must raise ``ChannelBroken``, not
    register and return the dead channel (the pre-fix code did both, so
    the BROKEN channel stayed in ``ctx.channels`` for good)."""
    client, server, broken, connected = _prime_break_pair(
        cluster, 9630, "client")
    assert connected is None                 # connect raised ChannelBroken
    assert broken.qp.qpn not in client.channels

    for channel in list(server.channels.values()):
        channel.mark_broken("peer torn down")
    settle(cluster, 200 * MILLIS)
    assert_quiescent(client, server)


def test_accept_drops_a_channel_that_breaks_mid_prime(cluster):
    """Passive side: same window in ``_accept_loop``.  The dead channel
    must be neither registered nor handed to the application."""
    client, server, broken, connected = _prime_break_pair(
        cluster, 9640, "server")
    assert connected is not None             # the active side came up
    assert not server.accepted.items
    assert broken.qp.qpn not in server.channels

    connected.mark_broken("peer torn down")
    settle(cluster, 200 * MILLIS)
    assert_quiescent(client, server)


def test_rendezvous_alloc_vs_mark_broken_accounting(cluster):
    """Receiver side: the channel dies while the rendezvous landing
    buffer is being allocated.  The resumed generator must free the
    buffer and must not install rendezvous state or post READs on the
    BROKEN channel (the pre-fix code leaked the buffer)."""
    client, server, client_ch, server_ch = connect_pair(cluster, port=9600)
    entered = []
    _slow_alloc(cluster, server, entered)
    client.send_msg(client_ch, LARGE)
    _break_when(cluster, entered, server_ch,
                "injected during rendezvous alloc")
    settle(cluster, 500 * MILLIS)

    assert entered == [LARGE]                # the race window was exercised
    assert server_ch._rendezvous == {}
    assert server_ch.stats["rendezvous_reads"] == 0
    # Exact accounting: landing buffer freed, recv buffers swept by
    # mark_broken — nothing left in use on the receiver.
    assert server.memcache.in_use_bytes == 0

    client_ch.mark_broken("peer torn down")
    settle(cluster, 200 * MILLIS)
    assert_quiescent(client, server)


def test_announce_alloc_vs_mark_broken_accounting(cluster):
    """Sender side: the channel dies while the announce's source buffer
    is being allocated.  The resumed generator must free the buffer and
    return without posting, and pump() must not record a transmission
    (the pre-fix code stamped src_addr/src_rkey and posted the announce
    on the BROKEN channel, leaking the buffer)."""
    client, server, client_ch, server_ch = connect_pair(cluster, port=9610)
    entered = []
    _slow_alloc(cluster, client, entered)
    client.send_msg(client_ch, LARGE)
    _break_when(cluster, entered, client_ch,
                "injected during announce alloc")
    settle(cluster, 500 * MILLIS)

    assert entered == [LARGE]                # the race window was exercised
    assert client_ch.stats["tx_msgs"] == 0   # pump stopped cleanly
    assert client_ch._write_pending == {}
    assert client.memcache.in_use_bytes == 0

    server_ch.mark_broken("peer torn down")
    settle(cluster, 200 * MILLIS)
    assert_quiescent(client, server)


def test_control_post_failure_leaves_ack_bookkeeping_untouched(cluster):
    """A failed control post must not pretend the ack left: the window's
    sent-ack state and the acks_sent counter move only after the post
    succeeds (the pre-fix code bumped both before the yield)."""
    client, server, client_ch, server_ch = connect_pair(cluster, port=9620)
    for _ in range(3):
        client.send_msg(client_ch, 128)
    settle(cluster, 2 * MILLIS)              # delivered, acks still pending
    before_unacked = server_ch.window.unacked_arrivals()
    assert before_unacked > 0
    before = (server_ch.window.sent_ack, server_ch.stats["acks_sent"],
              server_ch.stats["nops_sent"])

    def failing_post(qp, wr):
        raise RuntimeError("injected post_send failure")

    server.verbs.post_send = failing_post

    def attempt():
        try:
            yield from server_ch.send_control(MessageKind.ACK)
        except RuntimeError:
            return "failed"
        return "sent"

    assert run_process(cluster, attempt()) == "failed"
    assert server_ch.window.unacked_arrivals() == before_unacked
    assert (server_ch.window.sent_ack, server_ch.stats["acks_sent"],
            server_ch.stats["nops_sent"]) == before

    # With the fault removed the same ack goes out and the bookkeeping
    # catches up — the failure really was the only thing holding it.
    del server.verbs.post_send
    run_process(cluster, server_ch.send_control(MessageKind.ACK))
    settle(cluster, 2 * MILLIS)
    assert server_ch.window.unacked_arrivals() == 0
    assert server_ch.stats["acks_sent"] == before[1] + 1

    client_ch.mark_broken("test teardown")
    server_ch.mark_broken("test teardown")
    settle(cluster, 200 * MILLIS)
    assert_quiescent(client, server)
