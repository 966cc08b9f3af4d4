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
    return len(sim._heap) + len(sim._nowq)


def test_kick_idle_cycles_leave_no_stale_timers(cluster):
    sim = cluster.sim
    # "busy": no epoll wakeup charge, so every 1-us kick is a full cycle.
    ctx = started_context(cluster, idle_poll_mode="busy")
    deepest = 0
    for _ in range(1000):
        ctx.kick()
        sim.run(until=sim.now + 1 * MICROS)
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


def test_idle_poll_modes_change_latency():
    """busy < event for a cold (long-idle) request: a busy-polling pair
    never pays the epoll wakeup on either side."""
    def cold_latency(mode):
        fresh = build_cluster(2)
        config = XrdmaConfig(idle_poll_mode=mode)
        server = fresh.xrdma_context(1, config=config)
        client = fresh.xrdma_context(0, config=config)
        server.listen(9970)

        def echo():
            while True:
                msg = yield server.incoming.get()
                server.send_response(msg, msg.payload_size)

        def scenario():
            channel = yield from client.connect(1, 9970)
            yield fresh.sim.timeout(5 * MILLIS)     # go cold
            t0 = fresh.sim.now
            request = client.send_request(channel, 64)
            yield request.response
            return fresh.sim.now - t0

        fresh.sim.spawn(echo())
        return run_process(fresh, scenario(), limit=5 * SECONDS)

    assert cold_latency("busy") < cold_latency("event")
