"""Analysis framework: clock sync, tracing, monitor."""

from repro.analysis import ClockSync, Monitor, Tracer
from repro.sim import MICROS, MILLIS, RngRegistry, SECONDS
from repro.xrdma import XrdmaConfig
from tests.conftest import run_process
from tests.xrdma.conftest import connect_pair


# --------------------------------------------------------------- clock sync

def test_clocks_have_distinct_offsets():
    sync = ClockSync(RngRegistry(1))
    offsets = {sync.clock(h).offset_ns for h in range(8)}
    assert len(offsets) > 1


def test_offset_estimate_close_to_truth():
    sync = ClockSync(RngRegistry(1))
    estimate = sync.sync(0, 1)
    truth = sync.true_offset(0, 1)
    assert abs(estimate - truth) <= ClockSync.RESIDUAL_BOUND_NS


def test_offset_is_antisymmetric():
    sync = ClockSync(RngRegistry(1))
    sync.sync(0, 1)
    assert sync.offset(0, 1) == -sync.offset(1, 0)


def test_offset_syncs_lazily():
    sync = ClockSync(RngRegistry(1))
    assert sync.offset(2, 3) == sync.offset(2, 3)


# ------------------------------------------------------------------ tracing

def traced_pair(cluster):
    config = XrdmaConfig(req_rsp_mode=True, trace_sample_mask=1)
    client, server, client_ch, server_ch = connect_pair(
        cluster, client_config=config, server_config=config)
    sync = ClockSync(cluster.rng)
    client_tracer = Tracer(client, sync)
    server_tracer = Tracer(server, sync)
    return client, server, client_ch, server_ch, client_tracer, server_tracer


def test_trace_decomposition_recovers_network_time(cluster):
    client, server, client_ch, server_ch, ct, st = traced_pair(cluster)

    def scenario():
        msg = client.send_msg(client_ch, 256)
        yield server.incoming.get()
        yield msg.acked
        return msg

    msg = run_process(cluster, scenario(), limit=2 * SECONDS)
    assert st.records, "receiver tracer recorded nothing"
    record = next(iter(st.records.values()))
    # Network time must be positive and below the end-to-end total,
    # despite the hosts' clocks being megahertz apart.
    assert 0 < record.network_ns < 60 * MICROS
    assert record.payload_size == 256


def test_trace_request_api(cluster):
    client, server, client_ch, server_ch, ct, st = traced_pair(cluster)

    def scenario():
        msg = client.send_msg(client_ch, 64)
        yield server.incoming.get()
        yield msg.acked
        return msg

    msg = run_process(cluster, scenario(), limit=2 * SECONDS)
    # Sender side records total latency once acked.
    record = client.trace_request(msg)
    assert record is None or record.total_ns > 0
    assert any(record.view == "sender" and record.complete
               for record in ct.records.values())


def test_bare_data_mode_traces_nothing(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster)
    sync = ClockSync(cluster.rng)
    tracer = Tracer(server, sync)

    def scenario():
        client.send_msg(client_ch, 64)
        yield server.incoming.get()

    run_process(cluster, scenario(), limit=2 * SECONDS)
    assert not tracer.records


def test_poll_gap_watchdog_catches_stalls(cluster):
    client, server, client_ch, server_ch, ct, st = traced_pair(cluster)
    client.inject_stall(2 * MILLIS)   # the Sec. VII-D allocator-lock stall
    cluster.sim.run(until=cluster.sim.now + 20 * MILLIS)
    assert client.poll_gaps, "watchdog missed the stall"
    assert ct.poll_gap_log
    assert ct.poll_gap_log[0].duration_ns >= 2 * MILLIS


def test_slow_segment_logging(cluster):
    client, server, client_ch, server_ch, ct, st = traced_pair(cluster)
    ct.segment("allocator_lock", 80 * MICROS)    # above the 50 µs threshold
    ct.segment("fast_path", 1 * MICROS)          # below
    assert len(ct.slow_log) == 1
    assert ct.slow_log[0].location == "allocator_lock"


def test_tracing_overhead_is_small(cluster):
    """Sec. VII-A: req-rsp adds ~200 ns (2–4%) over bare-data."""
    def measure(config):
        from repro.cluster import build_cluster
        fresh = build_cluster(2)
        client, server, client_ch, server_ch = connect_pair(
            fresh, client_config=config, server_config=config)
        server_ch.on_request = lambda m: server.send_response(m, 64)
        latencies = []

        def scenario():
            for _ in range(20):
                t0 = fresh.sim.now
                request = client.send_request(client_ch, 64)
                yield request.response
                latencies.append((fresh.sim.now - t0) / 2)

        run_process(fresh, scenario(), limit=5 * SECONDS)
        return sum(latencies) / len(latencies)

    bare = measure(XrdmaConfig(req_rsp_mode=False))
    traced = measure(XrdmaConfig(req_rsp_mode=True, trace_sample_mask=1))
    overhead = (traced - bare) / bare
    assert 0 <= overhead < 0.10


# ------------------------------------------------------------------ monitor

def test_monitor_collects_context_series(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster)
    monitor = Monitor(cluster.sim, cluster.stats, sample_interval_ns=MILLIS)
    monitor.attach(client)

    def scenario():
        for _ in range(20):
            client.send_msg(client_ch, 128)
            yield server.incoming.get()
            yield cluster.sim.timeout(MILLIS)

    run_process(cluster, scenario(), limit=2 * SECONDS)
    assert monitor.values("ctx%d.tx_msgs" % client.ctx_id)
    assert monitor.values("ctx%d.channels" % client.ctx_id)[-1] == 1
    assert max(monitor.values("ctx%d.mem_occupied" % client.ctx_id)) > 0


def test_monitor_fabric_sampler(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster)
    monitor = Monitor(cluster.sim, cluster.stats, sample_interval_ns=MILLIS)
    monitor.start_fabric_sampler()

    def scenario():
        client.send_msg(client_ch, 1 << 20)
        yield server.incoming.get()

    run_process(cluster, scenario(), limit=2 * SECONDS)
    cluster.sim.run(until=cluster.sim.now + 5 * MILLIS)
    delivered = monitor.values("net.data_bytes_delivered")
    assert delivered[-1] >= 1 << 20


def test_monitor_rate_helpers(cluster):
    monitor = Monitor(cluster.sim, cluster.stats)
    monitor.series["x"] = [(0, 0), (1_000_000_000, 100)]
    assert monitor.rate_per_second("x") == [100.0]
