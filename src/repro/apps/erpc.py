"""ERPC: the protobuf RPC framework over X-RDMA (Sec. VII-B).

The paper cites ERPC — "a protobuf RPC framework with RDMA support at
Alibaba" — as the project where X-RDMA saved ≥70% of development and
maintenance man-months.  This module is that framework: typed services
with named methods, a serialization cost model standing in for protobuf
encode/decode, client stubs with timeouts, and error propagation — all
in a few hundred lines because the transport concerns live in X-RDMA.

Usage::

    service = ErpcService("kv")
    @service.method
    def get(request):                 # dict in, (dict, nbytes) out
        return {"value": ...}, 128

    server = ErpcServer(ctx)
    server.register(service)
    server.serve(port=9800)

    client = ErpcClient(ctx)
    yield from client.connect(server_host, 9800)
    reply = yield from client.call("kv.get", {"key": "a"}, request_bytes=64)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.sim.events import AnyOf
from repro.sim.timeunits import SECONDS
from repro.xrdma.channel import ChannelBroken
from repro.xrdma.message import XrdmaMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.xrdma.channel import XrdmaChannel
    from repro.xrdma.context import XrdmaContext

#: protobuf-ish serialization cost per byte, each direction
_SERIALIZE_PER_BYTE_NS = 0.25
_SERIALIZE_BASE_NS = 400
#: how long a call waits for its reply before raising ErpcError
_CALL_TIMEOUT_NS = 2 * SECONDS


class ErpcError(RuntimeError):
    """Remote method failed, unknown method, or call timed out."""


@dataclass
class _Envelope:
    """What rides as the message payload (the encoded protobuf)."""

    method: str
    body: Any
    error: Optional[str] = None


class ErpcService:
    """A named collection of methods."""

    def __init__(self, name: str):
        self.name = name
        self.methods: Dict[str, Callable] = {}

    def method(self, fn: Callable) -> Callable:
        """Decorator: register ``fn`` as ``<service>.<fn name>``.

        Handlers take the request body and return ``(reply_body,
        reply_bytes)``; raising inside a handler propagates as an
        :class:`ErpcError` at the caller.
        """
        self.methods[fn.__name__] = fn
        return fn


class ErpcServer:
    """Dispatches incoming X-RDMA requests to registered services."""

    def __init__(self, ctx: "XrdmaContext"):
        self.ctx = ctx
        self.services: Dict[str, ErpcService] = {}
        self.calls_served = 0
        self.errors_returned = 0

    def register(self, service: ErpcService) -> None:
        if service.name in self.services:
            raise ValueError(f"service {service.name!r} already registered")
        self.services[service.name] = service

    def serve(self, port: int) -> None:
        """Listen and dispatch forever (spawns the server loop)."""
        self.ctx.listen(port)
        self.ctx.sim.spawn(self._loop(), name=f"erpc:{port}")

    def _loop(self):
        while True:
            msg = yield self.ctx.incoming.get()
            if not msg.is_request or not isinstance(msg.payload, _Envelope):
                continue
            self.ctx.sim.spawn(self._dispatch(msg))

    def _dispatch(self, msg: XrdmaMessage):
        envelope: _Envelope = msg.payload
        # Decode cost (protobuf parse).
        yield self.ctx.sim.timeout(
            _SERIALIZE_BASE_NS
            + int(msg.payload_size * _SERIALIZE_PER_BYTE_NS))
        service_name, _, method_name = envelope.method.partition(".")
        service = self.services.get(service_name)
        handler = service.methods.get(method_name) if service else None
        if handler is None:
            self.errors_returned += 1
            self._reply(msg, envelope, None, 64,
                        error=f"unknown method {envelope.method!r}")
            return
        try:
            body, nbytes = handler(envelope.body)
        except Exception as exc:  # xr-lint: disable=swallowed-error
            # Intentional RPC-server semantics: a handler error becomes an
            # error reply to the caller, not a server crash.
            self.errors_returned += 1
            self._reply(msg, envelope, None, 64, error=str(exc))
            return
        self.calls_served += 1
        yield self.ctx.sim.timeout(
            _SERIALIZE_BASE_NS + int(nbytes * _SERIALIZE_PER_BYTE_NS))
        self._reply(msg, envelope, body, nbytes)

    def _reply(self, msg: XrdmaMessage, envelope: _Envelope, body: Any,
               nbytes: int, error: Optional[str] = None) -> None:
        self.ctx.send_response(msg, nbytes, payload=_Envelope(
            method=envelope.method, body=body, error=error))


class ErpcClient:
    """Typed stub: connect once, call methods by name."""

    def __init__(self, ctx: "XrdmaContext"):
        self.ctx = ctx
        self.channel: Optional["XrdmaChannel"] = None
        self.calls_made = 0

    def connect(self, remote_host: int, port: int):
        """Generator: establish the underlying channel."""
        self.channel = yield from self.ctx.connect(remote_host, port)
        return self.channel

    def call(self, method: str, body: Any, request_bytes: int):
        """Generator: one RPC; returns the reply body or raises ErpcError."""
        if self.channel is None:
            raise ErpcError("client is not connected")
        # Encode cost (protobuf serialize).
        yield self.ctx.sim.timeout(
            _SERIALIZE_BASE_NS + int(request_bytes * _SERIALIZE_PER_BYTE_NS))
        envelope = _Envelope(method=method, body=body)
        try:
            request = self.ctx.send_request(self.channel, request_bytes,
                                            payload=envelope)
        except ChannelBroken as exc:
            raise ErpcError(f"transport failed: {exc}") from exc
        self.calls_made += 1
        timer = self.ctx.sim.timeout(_CALL_TIMEOUT_NS)
        try:
            result = yield AnyOf(self.ctx.sim, [request.response, timer])
        except ChannelBroken as exc:
            raise ErpcError(f"transport failed: {exc}") from exc
        if request.response not in result:
            raise ErpcError(f"call {method!r} timed out")
        reply_msg: XrdmaMessage = request.response.value
        reply: _Envelope = reply_msg.payload
        # Decode cost.
        yield self.ctx.sim.timeout(
            _SERIALIZE_BASE_NS
            + int(reply_msg.payload_size * _SERIALIZE_PER_BYTE_NS))
        if reply.error is not None:
            raise ErpcError(reply.error)
        return reply.body
