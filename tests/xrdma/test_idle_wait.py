"""The poll loop's idle wait (hybrid polling, Sec. IV-B): one wake event
and one deadline timer per context, nothing abandoned in the heap."""

from repro.cluster import build_cluster
from repro.sim import MICROS, MILLIS, SECONDS
from repro.xrdma import XrdmaConfig
from tests.conftest import run_process
from tests.xrdma.conftest import make_context


class _RoundLog:
    """Stands in for the Monitor: the loop calls it once per poll round."""

    def __init__(self, sim):
        self.sim = sim
        self.rounds = []

    def maybe_sample(self, ctx):
        self.rounds.append(self.sim.now)


def started_context(cluster, **config):
    ctx = make_context(cluster, 0, XrdmaConfig(**config))
    ctx.monitor = _RoundLog(cluster.sim)
    ctx.start()
    cluster.sim.run(until=cluster.sim.now + 1 * MICROS)    # first round parks
    assert ctx.monitor.rounds == [0]
    return ctx


def pending(sim):
    return len(sim._heap)


def test_kick_idle_cycles_leave_no_stale_timers(cluster):
    sim = cluster.sim
    # Kicks find no work, so the loop stays idle: the first 100 us of
    # wakes busy-poll, every later one pays the epoll wakeup.  A kick
    # every 5 us outlasts that wakeup, so each one is a full cycle.
    ctx = started_context(cluster)
    assert cluster.params.host_wakeup_ns < 5 * MICROS
    deepest = 0
    for _ in range(1000):
        ctx.kick()
        sim.run(until=sim.now + 5 * MICROS)
        deepest = max(deepest, pending(sim))
    assert len(ctx.monitor.rounds) == 1001      # each kick ran one round
    assert deepest <= 4                         # ~1000 with a timer per wait


def test_unkicked_context_wakes_at_the_timer_deadline(cluster):
    sim = cluster.sim
    ctx = started_context(cluster, keepalive_intv_ms=5.0,
                          deadlock_check_intv_ms=50.0)
    sim.run(until=12 * MILLIS)
    # Parked > 100 us, so each wake pays the epoll wakeup; the next
    # keepalive deadline counts from the round that served the last one.
    first = 5 * MILLIS + cluster.params.host_wakeup_ns
    second = first + 5 * MILLIS + cluster.params.host_wakeup_ns
    assert ctx.monitor.rounds == [0, first, second]


def test_stop_while_parked_lets_the_queue_drain(cluster):
    sim = cluster.sim
    ctx = started_context(cluster)
    sim.run(until=1 * MILLIS)
    ctx.stop()
    sim.run()                   # returns: nothing of the context re-arms
    assert pending(sim) == 0
    assert ctx.monitor.rounds == [0]
    # At the latest the already-armed deadline timer fired, as a no-op.
    assert sim.now <= ctx.config.deadlock_check_intv_ns


def test_inject_stall_interrupts_an_idle_wait(cluster):
    sim = cluster.sim
    ctx = started_context(cluster)
    sim.run(until=1 * MILLIS)
    ctx.inject_stall(2 * MILLIS)
    sim.run(until=4 * MILLIS)
    woke = 1 * MILLIS + cluster.params.host_wakeup_ns
    assert ctx.monitor.rounds == [0, woke + 2 * MILLIS]
    assert ctx.poll_gaps == [woke + 2 * MILLIS]


def test_hybrid_polling_charges_the_wakeup_only_when_cold():
    """A request after 50 us of idle finds both loops still busy-polling;
    one after 5 ms pays the epoll wakeup on each side, and nothing else."""
    cluster = build_cluster(2)
    sim = cluster.sim
    server = cluster.xrdma_context(1)
    client = cluster.xrdma_context(0)
    server.listen(9970)

    def echo():
        while True:
            msg = yield server.incoming.get()
            server.send_response(msg, msg.payload_size)

    def round_trip(channel):
        t0 = sim.now
        request = client.send_request(channel, 64)
        yield request.response
        return sim.now - t0

    def scenario():
        channel = yield from client.connect(1, 9970)
        yield from round_trip(channel)                  # warm up
        latencies = []
        for idle in (50 * MICROS, 5 * MILLIS):  # inside, outside 100 us
            yield sim.timeout(idle)
            latencies.append((yield from round_trip(channel)))
        return latencies

    sim.spawn(echo())
    warm, cold = run_process(cluster, scenario(), limit=5 * SECONDS)
    assert cold - warm == 2 * cluster.params.host_wakeup_ns
