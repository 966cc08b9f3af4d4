"""The Mock's TCP detour is a strategy under the channel, not a fork.

Each test pins a defect the old ``queue_message`` monkeypatch had (and
fails at the commit before it was deleted): messages overtaking each
other across the switch, a second Mock stealing the first one's TCP
stack, a closed channel that kept delivering, no back-pressure, and
traces that could not follow a message over the socket.
"""

import pytest

from repro.analysis import ClockSync, Mock, Tracer
from repro.analysis.tracing import analyze
from repro.sim import MICROS, MILLIS, SECONDS
from repro.xrdma import XrdmaConfig
from repro.xrdma.channel import ChannelBroken, ChannelState
from repro.xrdma.protocol import rendezvous_variant_names
from tests.conftest import run_process
from tests.scenarios.conftest import assert_quiescent, close_channels, settle
from tests.xrdma.conftest import connect_pair, make_context

SIZES = [512, 256 * 1024, 64, 4096, 100_000, 2048, 4097, 128]


def _engage(cluster, client, server, client_ch, server_ch):
    mock = Mock(cluster)
    run_process(cluster, mock.engage(client, client_ch, server, server_ch),
                limit=2 * SECONDS)
    return mock


@pytest.mark.parametrize("variant", rendezvous_variant_names())
def test_switching_transports_mid_stream_keeps_the_contract(cluster, variant):
    """Engage *and* disengage under load: eager sends, rendezvous
    transfers and socket writes overlap, yet every payload is delivered
    exactly once, in order, from one sequence space."""
    config = XrdmaConfig(rendezvous_variant=variant)
    client, server, client_ch, server_ch = connect_pair(
        cluster, client_config=config, server_config=config)
    mock = Mock(cluster)

    def burst(start):
        for index in range(start, start + 60):
            client.send_msg(client_ch, SIZES[index % len(SIZES)],
                            payload=index)

    def scenario():
        burst(0)
        yield from mock.engage(client, client_ch, server, server_ch)
        burst(60)
        # 2 ms engaged: ~75 headers ride the socket, the rest RC (a
        # socket write blocks the poll loop; 200 us would carry 2-6).
        yield cluster.sim.timeout(2 * MILLIS)
        mock.disengage(client_ch)
        mock.disengage(server_ch)
        burst(120)
        got = []
        while len(got) < 180:
            got.extend(server.polling())
            yield cluster.sim.timeout(100 * MICROS)
        return got

    got = run_process(cluster, scenario(), limit=60 * SECONDS)
    settle(cluster, 300 * MILLIS)            # trailing acks, late arrivals
    got.extend(server.polling())

    assert [msg.payload for msg in got] == list(range(180))
    assert [msg.payload_size for msg in got] == \
        [SIZES[index % len(SIZES)] for index in range(180)]
    assert client_ch.window.seq == 180
    assert client_ch.window.in_flight == 0
    assert server_ch._rendezvous == {} and server_ch._pending_delivery == {}
    assert client_ch._write_pending == {}

    close_channels(cluster, client)
    settle(cluster)
    assert not mock.is_engaged(client_ch) and not mock.is_engaged(server_ch)
    assert_quiescent(client, server)


def test_two_mocks_share_each_hosts_one_tcp_stack(cluster):
    """A second Mock used to build a second TcpAgent per host, which
    replaced the first one's NIC handler: its messages vanished."""
    first = connect_pair(cluster, port=9100)
    second = connect_pair(cluster, port=9101)

    def scenario():
        for client, server, client_ch, server_ch in (first, second):
            yield from Mock(cluster).engage(client, client_ch,
                                            server, server_ch)
        first[0].send_msg(first[2], 512, payload="first-mock")
        second[0].send_msg(second[2], 512, payload="second-mock")
        one = yield first[1].incoming.get()
        two = yield second[1].incoming.get()
        return one.payload, two.payload

    assert run_process(cluster, scenario(), limit=2 * SECONDS) == \
        ("first-mock", "second-mock")
    assert cluster.tcp_agent(0) is cluster.tcp_agent(0)


def test_closed_engaged_channel_refuses_sends_and_releases_the_socket(xr):
    cluster, client, server, client_ch, server_ch = xr
    mock = _engage(*xr)
    # Nothing rebinds a channel method: the detour lives in the policy.
    assert not any(callable(value) and hasattr(type(client_ch), name)
                   for name, value in vars(client_ch).items())
    close_channels(cluster, client)             # CLOSE rides the socket
    settle(cluster)
    assert client_ch.state is server_ch.state is ChannelState.CLOSED
    assert not mock.is_engaged(client_ch) and not mock.is_engaged(server_ch)
    assert not cluster.tcp_agent(0).sockets
    assert not cluster.tcp_agent(1).sockets
    with pytest.raises(ChannelBroken):
        client.send_msg(client_ch, 64)
    with pytest.raises(ChannelBroken):
        server.send_msg(server_ch, 64)
    assert_quiescent(client, server)


def test_closed_detours_leave_nothing_behind(cluster):
    """Twenty connect -> engage -> send -> close cycles on one pair: each
    detour's one-shot listener is gone once it has accepted, each rx pump
    returns at end of stream instead of staying parked on a closed
    socket, and the stopped simulation drains."""
    client, server = make_context(cluster, 0), make_context(cluster, 1)
    accepted = server.listen(9100)
    agents = [cluster.tcp_agent(0), cluster.tcp_agent(1)]
    mock = Mock(cluster)
    sockets, got = [], []

    def scenario():
        for index in range(20):
            client_ch = yield from client.connect(1, 9100)
            server_ch = yield accepted.get()
            yield from mock.engage(client, client_ch, server, server_ch)
            sockets.extend(s for agent in agents
                           for s in agent.sockets.values())
            client.send_msg(client_ch, 512, payload=index)
            yield cluster.sim.timeout(1 * MILLIS)
            got.extend(msg.payload for msg in server.polling())
            yield from client.close_channel(client_ch)

    run_process(cluster, scenario(), limit=10 * SECONDS)
    settle(cluster)
    assert got == list(range(20)) and len(sockets) == 40
    assert all(agent.listeners == {} and agent.sockets == {}
               for agent in agents)
    assert not any(socket.incoming._getters for socket in sockets)
    assert_quiescent(client, server)
    client.stop()
    server.stop()
    cluster.sim.run()
    assert not cluster.sim._heap and not cluster.sim._nowq


def test_detoured_sends_are_window_limited(xr):
    """1000 sends used to put 1000 processes in flight with the window
    reading zero; now the queue backs up behind the seq-ack window."""
    cluster, client, server, client_ch, server_ch = xr
    _engage(*xr)
    for _ in range(1000):
        client.send_msg(client_ch, 4096)
    settle(cluster, 500 * MICROS)
    assert 0 < client_ch.window.in_flight <= client_ch.window.depth - 1
    assert client_ch.pending_send


def test_peer_closing_first_breaks_the_channel_not_the_poll_loop(xr):
    """A write on a socket the peer already closed is a broken channel
    for the sender — not an exception out of its context's loop."""
    cluster, client, server, client_ch, server_ch = xr
    _engage(*xr)
    server_ch.mark_broken("injected")       # releases its socket: FIN
    settle(cluster, 1 * MILLIS)
    msg = client.send_msg(client_ch, 512)
    settle(cluster, 1 * MILLIS)
    assert client_ch.state is ChannelState.BROKEN
    assert isinstance(msg.acked.value, ChannelBroken)
    assert "tcp detour" in str(msg.acked.value)
    settle(cluster)
    assert_quiescent(client, server)


def test_detoured_messages_trace_to_zero_residual(cluster):
    """A detoured message closes ``tcp_send`` in place of the RC wire
    stages, and its chain still sums exactly to the end-to-end total."""
    config = XrdmaConfig(req_rsp_mode=True, trace_sample_mask=1)
    client, server, client_ch, server_ch = connect_pair(
        cluster, client_config=config, server_config=config)
    tracer = Tracer(client, ClockSync(cluster.rng))
    _engage(cluster, client, server, client_ch, server_ch)
    for size in (512, 256 * 1024, 64):
        client.send_msg(client_ch, size)
    settle(cluster, 300 * MILLIS)

    assert len(server.polling()) == 3
    assert len(tracer.records) == 3
    assert analyze({}, tracer.export_records())["summary"]["incomplete"] == 0
    for record in tracer.records.values():
        assert record.complete and record.residual_ns == 0
        stages = [stage for stage, _ in record.spans]
        assert "tcp_send" in stages and "nic_tx" not in stages
