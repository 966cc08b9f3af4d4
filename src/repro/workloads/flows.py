"""Flow models (Sec. VI-B: "customize flow models, e.g., elephant and mice
flows").

Mice are short, latency-sensitive messages (≤ a few KB), the serving
subsystem's RPC class; a :class:`FlowSpec` draws any other size from its
own ``size_fn``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.xrdma.channel import ChannelBroken

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.rng import RngStream
    from repro.xrdma.channel import XrdmaChannel
    from repro.xrdma.context import XrdmaContext


def mice_size(rng: "RngStream") -> int:
    """Short message: 64 B – 4 KB, biased small (log-uniform)."""
    exponent = rng.uniform(6, 12)        # 2^6 .. 2^12
    return int(2 ** exponent)


@dataclass
class FlowSpec:
    """A unidirectional traffic description between two contexts.

    ``mean_gap_ns`` selects the pacing regime — the distinction the
    serving subsystem is built on, pinned by
    ``tests/workloads/test_workloads.py``:

    * ``0`` (**closed-pipe**): messages are enqueued back to back (1 ns
      apart); the *transport* paces the flow via its seq-ack window and
      flow-control backpressure.  This is the incast benchmarks' maximal
      -pressure mode.
    * ``> 0`` (**open loop**): exponential inter-arrival gaps drawn
      solely from the rng stream.  Send times are a pure function of
      ``(seed, spec)`` — they must never depend on acks, completions, or
      how congested the fabric is, or the offered load would quietly
      throttle itself exactly when the measurement matters most.
    """

    src: int
    dst: int
    count: int                           #: ONEWAY messages to send
    #: draws a message size (rng -> bytes); None = use ``fixed_size``
    size_fn: Optional[Callable[["RngStream"], int]] = None
    fixed_size: int = 4096
    #: mean inter-arrival gap; 0 = closed-pipe (see class docstring)
    mean_gap_ns: int = 0

    def draw_size(self, rng: "RngStream") -> int:
        if self.size_fn is None:
            return self.fixed_size
        return self.size_fn(rng)


def open_loop_sender(ctx: "XrdmaContext", channel: "XrdmaChannel",
                     spec: FlowSpec, rng: "RngStream",
                     sent_log: Optional[List] = None):
    """Process generator: send per ``spec`` with Poisson-ish gaps.

    Open loop: does not wait for acks, so bursts genuinely overrun the
    receiver the way production incast does.  With ``mean_gap_ns > 0``
    the enqueue times depend only on the rng stream (never on completion
    times) — the regression test compares send timestamps across fast
    and congested fabrics to keep it that way.
    """
    sim = ctx.sim
    sent = 0
    sent_bytes = 0
    while sent < spec.count:
        size = spec.draw_size(rng)
        try:
            msg = ctx.send_msg(channel, size)
        except ChannelBroken:   # channel died mid-run
            return sent, sent_bytes
        sent += 1
        sent_bytes += size
        if sent_log is not None:
            sent_log.append((sim.now, size, msg))
        gap = int(rng.exponential(spec.mean_gap_ns)) if spec.mean_gap_ns \
            else 0
        yield sim.timeout(max(gap, 1))
    return sent, sent_bytes


def request_loop(ctx: "XrdmaContext", channel: "XrdmaChannel",
                 size: int, count: int, latencies: List[int]):
    """Process generator: ``count`` closed-loop ``size``-byte RPCs, one
    at a time, appending each round trip (ns) to ``latencies``."""
    sim = ctx.sim
    for _ in range(count):
        t0 = sim.now
        request = ctx.send_request(channel, size)
        yield request.response
        latencies.append(sim.now - t0)
