"""Table II — bug classes and the mechanism that catches each.

| bug                   | tracking method              |
|-----------------------|------------------------------|
| heavy incast          | tracing, XR-Stat             |
| broken network        | keepAlive, XR-Ping           |
| jitter / long tail    | tracing, XR-Perf             |
| bugs hard to reproduce| Filter                       |
| memory leak or crash  | isolated memory cache        |

Each scenario injects the bug and asserts the designated mechanism
actually observes it.
"""

import pytest

from repro.analysis import ClockSync, Filter, Monitor, Tracer
from repro.analysis.faultfilter import FaultRule
from repro.cluster import build_cluster
from repro.sim import MICROS, MILLIS, SECONDS
from repro.sim.params import congested_params
from repro.tools import XrPerf, XrPing, XrStat
from repro.xrdma import XrdmaConfig
from repro.xrdma.memcache import MemCache

from .conftest import emit

CAUGHT = []


def scenario_heavy_incast():
    """XR-Stat's crucial indexes expose the incast."""
    cluster = build_cluster(5, params=congested_params())
    perf = XrPerf(cluster)
    perf.run_incast([0, 1, 2, 3], 4, size=128 * 1024,
                    messages_per_source=10,
                    config=XrdmaConfig(flow_control=False))
    stat = XrStat(cluster)
    crucial = stat.crucial_indexes()
    caught = crucial["cnps_sent"] > 0 or crucial["pause_frames"] > 0
    return "heavy incast", "XR-Stat crucial indexes", caught


def scenario_broken_network():
    """keepAlive + XR-Ping both notice the dead host."""
    cluster = build_cluster(3)
    contexts = [cluster.xrdma_context(h, config=XrdmaConfig(
        keepalive_intv_ms=5.0)) for h in range(3)]
    ping = XrPing(cluster, contexts)
    cluster.host(2).nic.crash()
    proc = cluster.sim.spawn(ping.run_mesh())
    cluster.sim.run_until_event(proc, limit=120 * SECONDS)
    caught = (0, 2) in ping.unreachable_pairs()
    return "broken network", "keepAlive / XR-Ping", caught


def scenario_jitter_long_tail():
    """Tracing's poll-gap watchdog catches the stalled thread."""
    cluster = build_cluster(2)
    config = XrdmaConfig(req_rsp_mode=True, trace_sample_mask=1)
    client = cluster.xrdma_context(0, config=config)
    server = cluster.xrdma_context(1, config=config)
    sync = ClockSync(cluster.rng)
    tracer = Tracer(client, sync)
    server.listen(9500)

    def scenario():
        channel = yield from client.connect(1, 9500)
        client.send_msg(channel, 64)
        yield server.incoming.get()

    proc = cluster.sim.spawn(scenario())
    cluster.sim.run_until_event(proc, limit=5 * SECONDS)
    client.inject_stall(2 * MILLIS)     # the allocator-lock bug
    cluster.sim.run(until=cluster.sim.now + 50 * MILLIS)
    caught = bool(tracer.poll_gap_log)
    return "jitter/long tail", "tracing poll watchdog", caught


def scenario_hard_to_reproduce():
    """Filter injects the elusive drop so the app-level bug shows up."""
    cluster = build_cluster(2)
    client = cluster.xrdma_context(0)
    server = cluster.xrdma_context(1)
    server.listen(9600)
    server.filter = Filter(cluster.rng.stream("tab2"))
    server.filter.add_rule(FaultRule(drop_probability=1.0))

    def scenario():
        channel = yield from client.connect(1, 9600)
        client.send_msg(channel, 64)

    proc = cluster.sim.spawn(scenario())
    cluster.sim.run_until_event(proc, limit=5 * SECONDS)
    cluster.sim.run(until=cluster.sim.now + 20 * MILLIS)
    caught = server.filter.dropped == 1 and not server.incoming.items
    return "hard-to-reproduce bug", "Filter fault injection", caught


def scenario_memory_bug():
    """The isolated memory cache flags the out-of-bounds access."""
    cluster = build_cluster(2)
    host = cluster.host(0)
    pd = host.verbs.alloc_pd()
    cache = MemCache(host.verbs, pd, mr_bytes=1 << 20, isolated=True)

    def scenario():
        buffer = yield from cache.alloc(4096)
        return buffer

    proc = cluster.sim.spawn(scenario())
    buffer = cluster.sim.run_until_event(proc, limit=SECONDS)
    # A buggy application touches past its buffer:
    in_bounds = cache.check_access(buffer.addr, buffer.size)
    out_of_bounds = cache.check_access(buffer.addr + (1 << 21), 64)
    caught = in_bounds and not out_of_bounds and cache.out_of_bound_hits == 1
    return "memory leak/crash", "isolated memory cache", caught


def test_tab2_bug_tracking_matrix(once):
    def run():
        return [
            scenario_heavy_incast(),
            scenario_broken_network(),
            scenario_jitter_long_tail(),
            scenario_hard_to_reproduce(),
            scenario_memory_bug(),
        ]

    rows = once(run)
    lines = [f"{'bug type':<24} {'tracking method':<28} {'caught':>7}"]
    for bug, method, caught in rows:
        lines.append(f"{bug:<24} {method:<28} {str(caught):>7}")
    emit("tab2_bug_tracking", lines)

    for bug, method, caught in rows:
        assert caught, f"{method} failed to catch {bug}"
