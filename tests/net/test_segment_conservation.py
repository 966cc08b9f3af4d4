"""Segment conservation: a host has one egress, and it counts.

Everything a host puts on its wire — RC data and acks, rdma_cm's
REQ/REP/RTU, the Mock's TCP packets — leaves through ``Rnic.transmit``,
so once the fabric is quiet every segment ever sent was either delivered
or dropped.  rdma_cm and the TCP stack used to enqueue on the uplink
themselves and forgot ``segments_sent``: more segments were delivered
than had been sent, with zero drops (three per connection, plus every
TCP packet).
"""

from repro.analysis import Mock
from repro.sim import MILLIS, SECONDS
from tests.conftest import run_process
from tests.xrdma.conftest import connect_pair


def test_every_sent_segment_is_delivered_or_dropped(cluster):
    # rdma_cm handshake.
    client, server, client_ch, server_ch = connect_pair(cluster)
    mock = Mock(cluster)

    def scenario():
        # One RPC (eager) and one rendezvous-sized message over RC.
        request = client.send_request(client_ch, 256, payload="ping")
        incoming = yield server.incoming.get()
        server.send_response(incoming, 64, payload="pong")
        yield request.response
        bulk = client.send_msg(client_ch, 256 * 1024)
        yield server.incoming.get()
        yield bulk.acked
        # One message over the Mock's TCP detour.
        yield from mock.engage(client, client_ch, server, server_ch)
        client.send_msg(client_ch, 4096, payload="via-tcp")
        yield server.incoming.get()

    run_process(cluster, scenario(), limit=5 * SECONDS)
    cluster.sim.run(until=cluster.sim.now + 50 * MILLIS)    # settle

    stats = cluster.stats
    assert stats.segments_sent > 70          # the bulk message alone is 64
    assert stats.segments_sent == stats.segments_delivered + stats.drops
