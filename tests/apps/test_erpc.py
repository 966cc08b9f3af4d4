"""ERPC: the protobuf RPC framework over X-RDMA."""

import pytest

from repro.analysis.faultfilter import FaultRule, Filter
from repro.apps import ErpcClient, ErpcError, ErpcServer, ErpcService
from repro.sim import SECONDS
from tests.conftest import run_process
from tests.xrdma.conftest import make_context


@pytest.fixture
def rpc(cluster):
    server_ctx = make_context(cluster, 1)
    server = ErpcServer(server_ctx)
    kv = ErpcService("kv")
    store = {}

    @kv.method
    def put(request):
        store[request["key"]] = request["value"]
        return {"ok": True}, 64

    @kv.method
    def get(request):
        if request["key"] not in store:
            raise KeyError(request["key"])
        return {"value": store[request["key"]]}, 256

    @kv.method
    def bulk(request):
        return {"blob": True}, request["nbytes"]

    server.register(kv)
    server.serve(9800)
    client = ErpcClient(make_context(cluster, 0))
    return cluster, server, client, store


def test_call_roundtrip(rpc):
    cluster, server, client, store = rpc

    def scenario():
        yield from client.connect(1, 9800)
        reply = yield from client.call("kv.put", {"key": "a", "value": 7},
                                       request_bytes=128)
        assert reply == {"ok": True}
        reply = yield from client.call("kv.get", {"key": "a"},
                                       request_bytes=64)
        return reply

    reply = run_process(cluster, scenario(), limit=5 * SECONDS)
    assert reply == {"value": 7}
    assert server.calls_served == 2
    assert client.calls_made == 2


def test_unknown_method_raises(rpc):
    cluster, server, client, store = rpc

    def scenario():
        yield from client.connect(1, 9800)
        yield from client.call("kv.nope", {}, request_bytes=64)

    with pytest.raises(ErpcError, match="unknown method"):
        run_process(cluster, scenario(), limit=5 * SECONDS)
    assert server.errors_returned == 1


def test_handler_exception_propagates(rpc):
    cluster, server, client, store = rpc

    def scenario():
        yield from client.connect(1, 9800)
        yield from client.call("kv.get", {"key": "missing"},
                               request_bytes=64)

    with pytest.raises(ErpcError, match="missing"):
        run_process(cluster, scenario(), limit=5 * SECONDS)


def test_large_responses_use_rendezvous(rpc):
    cluster, server, client, store = rpc

    def scenario():
        yield from client.connect(1, 9800)
        reply = yield from client.call("kv.bulk", {"nbytes": 1 << 20},
                                       request_bytes=64)
        return reply

    reply = run_process(cluster, scenario(), limit=5 * SECONDS)
    assert reply == {"blob": True}
    assert client.channel.stats["rendezvous_reads"] >= 1


def test_call_before_connect_raises(rpc):
    cluster, server, client, store = rpc

    def scenario():
        yield from client.call("kv.get", {"key": "a"}, request_bytes=64)

    with pytest.raises(ErpcError, match="not connected"):
        run_process(cluster, scenario(), limit=SECONDS)


def test_call_timeout_on_dead_server(rpc):
    """A server that never answers: every request it receives is dropped
    before delivery, so the call gives up after its 2 s timeout."""
    cluster, server, client, store = rpc
    server.ctx.filter = Filter(cluster.rng.stream("erpc-drop"))
    server.ctx.filter.add_rule(FaultRule(drop_probability=1.0))

    def scenario():
        yield from client.connect(1, 9800)
        start = cluster.sim.now
        try:
            yield from client.call("kv.get", {"key": "a"}, request_bytes=64)
        finally:
            waited.append(cluster.sim.now - start)

    waited = []
    with pytest.raises(ErpcError, match="timed out"):
        run_process(cluster, scenario(), limit=30 * SECONDS)
    assert waited[0] >= 2 * SECONDS


def test_duplicate_service_rejected(rpc):
    cluster, server, client, store = rpc
    with pytest.raises(ValueError):
        server.register(ErpcService("kv"))


def test_concurrent_clients(rpc):
    cluster, server, client, store = rpc
    second = ErpcClient(make_context(cluster, 2))
    results = []

    def caller(rpc_client, key, value):
        yield from rpc_client.connect(1, 9800)
        yield from rpc_client.call("kv.put", {"key": key, "value": value},
                                   request_bytes=64)
        reply = yield from rpc_client.call("kv.get", {"key": key},
                                           request_bytes=64)
        results.append((key, reply["value"]))

    proc_a = cluster.sim.spawn(caller(client, "x", 1))
    proc_b = cluster.sim.spawn(caller(second, "y", 2))
    cluster.sim.run_until_event(cluster.sim.all_of([proc_a, proc_b]),
                                limit=cluster.sim.now + 10 * SECONDS)
    assert sorted(results) == [("x", 1), ("y", 2)]
