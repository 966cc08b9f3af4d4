"""The analysis framework end to end (Sec. VI).

* req-rsp tracing with clock-synced network-time decomposition,
* the poll-gap watchdog catching an injected application stall
  (the Sec. VII-D allocator-lock case study),
* Mock falling back to TCP and returning,
* Filter dropping messages on demand.

Run:  python examples/tracing_and_faults.py
"""

from repro.analysis import ClockSync, Filter, Mock, Tracer
from repro.analysis.faultfilter import FaultRule
from repro.cluster import build_cluster
from repro.sim import MILLIS, SECONDS
from repro.xrdma import XrdmaConfig


def main():
    cluster = build_cluster(2)
    config = XrdmaConfig(req_rsp_mode=True, trace_sample_mask=1)
    client = cluster.xrdma_context(0, config=config)
    server = cluster.xrdma_context(1, config=config)
    accepted = server.listen(7100)

    sync = ClockSync(cluster.rng)
    client_tracer = Tracer(client, sync)
    server_tracer = Tracer(server, sync)
    print(f"host clocks skewed by "
          f"{abs(sync.true_offset(0, 1)) / 1000:.0f} us; "
          f"sync residual bound {sync.RESIDUAL_BOUND_NS / 1000:.1f} us")

    def scenario():
        channel = yield from client.connect(1, 7100)
        server_channel = yield accepted.get()
        server_channel.on_request = \
            lambda msg: server.send_response(msg, 64)

        # 1) Traced request: decompose where the time went.
        request = client.send_request(channel, 4096)
        yield request.response
        record = next(iter(server_tracer.records.values()))
        print(f"traced request: network time {record.network_ns / 1000:.2f} "
              f"us of the end-to-end path")

        # 2) Stall the client thread; the watchdog must notice.
        client.inject_stall(2 * MILLIS)
        yield cluster.sim.timeout(30 * MILLIS)
        gap = client_tracer.poll_gap_log[-1]
        print(f"poll watchdog flagged a {gap.duration_ns / 1e6:.1f} ms gap "
              f"(threshold {config.polling_warn_cycle_ns / 1e6:.1f} ms)")

        # 3) Fall back to TCP via Mock, then return to RDMA.  Same
        # channel, same window, same tracer: only the wire changes.
        mock = Mock(cluster)
        yield from mock.engage(client, channel, server, server_channel)
        request = client.send_request(channel, 4096)
        response = yield request.response
        print(f"mock: request answered over TCP "
              f"({response.payload_size} B response)")
        mock.disengage(channel)
        mock.disengage(server_channel)

        # 4) Drop a message via the Filter.  Last on purpose: the
        # middleware has no retransmit, so a dropped message is a
        # permanent hole in the receiver's sequence space and nothing
        # sent on this channel afterwards is ever delivered.
        server.filter = Filter(cluster.rng.stream("demo"))
        server.filter.add_rule(FaultRule(drop_probability=1.0))
        client.send_msg(channel, 64)
        yield cluster.sim.timeout(20 * MILLIS)
        print(f"filter dropped {server.filter.dropped} message(s); "
              f"application saw {len(server.incoming.items)}")

    done = cluster.sim.spawn(scenario())
    cluster.sim.run_until_event(done, limit=60 * SECONDS)
    print("analysis framework demo complete")


if __name__ == "__main__":
    main()
