"""X-RDMA: the paper's middleware, over the simulated verbs substrate.

Three data structures (Sec. IV-A) and the Table-I API surface:

* :class:`~repro.xrdma.context.XrdmaContext` — per-thread run-to-complete
  engine: hybrid polling, timers, memory cache, QP cache, config, tracing.
* :class:`~repro.xrdma.channel.XrdmaChannel` — one connection: seq-ack
  window, keepAlive liveness, flow control, mixed message model.
* :class:`~repro.xrdma.message.XrdmaMessage` — one request/response/oneway
  message with its header and completion events.

Protocol extensions (Sec. V): application-layer seq-ack window (RNR-free,
with NOP deadlock breaking), keepAlive via zero-byte RDMA Write, and flow
control (64 KB fragmentation + outstanding-WR queuing) layered over DCQCN.
"""

from repro.ctrlplane import QpCache
from repro.xrdma.channel import ChannelState, XrdmaChannel
from repro.xrdma.config import ConfigError, XrdmaConfig
from repro.xrdma.context import XrdmaContext
from repro.xrdma.memcache import MemCache, RdmaBuffer
from repro.xrdma.message import MessageKind, XrdmaHeader, XrdmaMessage
from repro.xrdma.seqack import SeqAckWindow, WindowFull

__all__ = [
    "ChannelState",
    "ConfigError",
    "MemCache",
    "MessageKind",
    "QpCache",
    "RdmaBuffer",
    "SeqAckWindow",
    "WindowFull",
    "XrdmaChannel",
    "XrdmaConfig",
    "XrdmaContext",
    "XrdmaHeader",
    "XrdmaMessage",
]
