"""Runtime protocol-invariant checking (the sanitizer layer, Sec. VI-C).

X-RDMA's production lesson is that RDMA middleware must *detect its own
corruption*: leaked QPs, stuck windows, out-of-bound buffers and drifting
flow-control accounting never show up in happy-path benchmarks, only in
churn.  This module is the simulation-world analogue of the sanitizer
wiring a C++ code base would get from ASAN — cheap inline hooks at every
protocol mutation plus structural deep checks run at sampling points and
at scenario quiescence.

Two pieces:

* :class:`InvariantRegistry` — collects violations.  In ``fatal`` mode a
  violation raises :class:`InvariantError` on the spot (tests); in
  ``count`` mode it is recorded and execution continues with the call
  site containing the damage (benches — the Monitor samples the running
  totals so a violation shows up in the production time series).
* **Hooks** — instrumented modules (``xrdma.seqack``, ``xrdma.flowctl``,
  ``xrdma.memcache``, ``xrdma.channel``, ``rnic.qp``) call the
  module-level :func:`check`/:func:`note` functions.  With no registry
  installed both are near-free, so library users pay nothing.

Like a sanitizer, the active registry is process-global: tests install a
fatal registry via an autouse fixture, benchmarks a counting one.  The
structural deep checks run through :func:`verify_context`.

This module must not import anything from ``repro`` at module level: the
instrumented modules import it, and it sits below all of them.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterator, List, Optional, Tuple

_MODES = ("fatal", "count")
#: First-N violation details kept verbatim (counts are always exact).
_DETAIL_KEEP = 64


class InvariantError(AssertionError):
    """A protocol invariant was violated (fatal mode)."""


class InvariantRegistry:
    """Violation collector with ``fatal`` / ``count`` escalation modes."""

    def __init__(self, mode: str = "fatal"):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}: {mode!r}")
        self.mode = mode
        self.counts: Counter = Counter()
        self.details: List[Tuple[str, str]] = []

    # ------------------------------------------------------------- recording
    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def ok(self) -> bool:
        return not self.counts

    def note(self, name: str, detail: str = "") -> None:
        """Record a violation without escalating (the call site raises its
        own, more specific error — e.g. :class:`~repro.rnic.qp.QpStateError`)."""
        self.counts[name] += 1
        if len(self.details) < _DETAIL_KEEP:
            self.details.append((name, detail))

    def record(self, name: str, detail: str = "") -> None:
        """Record a violation; raise in fatal mode."""
        self.note(name, detail)
        if self.mode == "fatal":
            raise InvariantError(f"invariant {name!r} violated: {detail}")

    def check(self, condition: bool, name: str, detail: Any = "") -> bool:
        """Assert ``condition``; ``detail`` may be a callable built lazily."""
        if condition:
            return True
        self.record(name, detail() if callable(detail) else str(detail))
        return False


# ---------------------------------------------------------------- active hook
_active: Optional[InvariantRegistry] = None

#: Mirror of ``_active is not None``, maintained by install()/uninstall().
#: Hot call sites gate *pure assertion* blocks on this flag so a disabled
#: sanitizer costs one module-attribute load instead of building detail
#: closures and calling :func:`check`.  Sites whose violated branch also
#: *clamps* state must not be gated — they stay correct by constructing
#: their detail lazily inside the violated branch instead.
ENABLED = False


def install(registry: Optional[InvariantRegistry] = None,
            mode: str = "fatal") -> InvariantRegistry:
    """Make ``registry`` (or a fresh one in ``mode``) the active sanitizer."""
    global _active, ENABLED
    _active = registry if registry is not None else InvariantRegistry(mode)
    ENABLED = True
    return _active


def uninstall() -> Optional[InvariantRegistry]:
    """Deactivate checking; returns the registry that was active."""
    global _active, ENABLED
    registry, _active = _active, None
    ENABLED = False
    return registry


def current() -> Optional[InvariantRegistry]:
    """The active registry, or None when checking is off."""
    return _active


def enabled() -> bool:
    return _active is not None


def check(condition: bool, name: str, detail: Any = "") -> bool:
    """Hot-path hook: no-op when no registry is installed.

    Returns ``condition`` either way, so call sites can *contain* the
    damage in count mode (``if not check(x >= 0, ...): x = 0``) instead of
    silently clamping up front — the clamp still happens, but only after
    the violation has been surfaced.
    """
    if condition:
        return True
    if _active is not None:
        _active.record(name, detail() if callable(detail) else str(detail))
    return False


def note(name: str, detail: str = "") -> None:
    """Record-only hook for sites that raise their own error anyway."""
    if _active is not None:
        _active.note(name, detail)


# ============================================================== deep checks
# Structural validators over live protocol objects.  They are duck-typed
# (no repro imports) and yield ``(name, detail)`` pairs; use
# :func:`verify_context` to run and record them in one call.

def seqack_violations(window) -> Iterator[Tuple[str, str]]:
    """Sender/receiver counters of one seq-ack window are consistent."""
    if not window.acked <= window.seq:
        yield ("seqack.acked_gt_seq",
               f"acked={window.acked} seq={window.seq}")
    if not 0 <= window.in_flight <= window.depth:
        yield ("seqack.in_flight_bounds",
               f"in_flight={window.in_flight} depth={window.depth}")
    if not window.rta <= window.wta:
        yield ("seqack.rta_gt_wta", f"rta={window.rta} wta={window.wta}")
    if not window.sent_ack <= window.rta:
        yield ("seqack.sent_ack_gt_rta",
               f"sent_ack={window.sent_ack} rta={window.rta}")
    for seq in window._pending_rx:
        if seq < window.rta:
            yield ("seqack.pending_below_rta",
                   f"pending seq {seq} < rta {window.rta}")


def flow_violations(controller) -> Iterator[Tuple[str, str]]:
    """One channel's flow-control counters are sane."""
    if controller.outstanding < 0:
        yield ("flowctl.outstanding_negative",
               f"outstanding={controller.outstanding}")
    if controller.budget_held < 0:
        yield ("flowctl.budget_held_negative",
               f"budget_held={controller.budget_held}")
    if controller.budget_held > controller.outstanding + controller._abandoned:
        yield ("flowctl.budget_held_gt_outstanding",
               f"budget_held={controller.budget_held} "
               f"outstanding={controller.outstanding}")


def budget_violations(budget) -> Iterator[Tuple[str, str]]:
    """The shared WR budget equals the sum of per-channel holdings."""
    if not 0 <= budget.in_use <= budget.capacity:
        yield ("flowctl.budget_bounds",
               f"in_use={budget.in_use} capacity={budget.capacity}")
    held = sum(c.budget_held for c in budget.controllers)
    if budget.in_use != held:
        yield ("flowctl.budget_mismatch",
               f"in_use={budget.in_use} sum(budget_held)={held}")


def memcache_violations(cache) -> Iterator[Tuple[str, str]]:
    """Arena accounting: in-use equals live bytes, free lists are exact."""
    live = sum(buffer.size for _, buffer in cache._live.values())
    if cache.in_use_bytes != live:
        yield ("memcache.in_use_mismatch",
               f"in_use_bytes={cache.in_use_bytes} live_bytes={live}")
    arena_ids = {id(arena) for arena in cache._arenas}
    for arena, buffer in cache._live.values():
        if id(arena) not in arena_ids:
            yield ("memcache.live_in_reclaimed_arena",
                   f"buffer id={buffer.buffer_id} addr={buffer.addr:#x}")
        elif not (arena.mr.addr <= buffer.addr
                  and buffer.addr + buffer.size
                  <= arena.mr.addr + arena.mr.length):
            yield ("memcache.buffer_out_of_arena",
                   f"buffer id={buffer.buffer_id} addr={buffer.addr:#x} "
                   f"size={buffer.size}")
    spans = []
    for arena in cache._arenas:
        base, length = arena.mr.addr, arena.mr.length
        spans.append((base, length))
        free_total = 0
        previous_end = base
        for addr, size in sorted(arena.free):
            if addr < previous_end:
                yield ("memcache.free_list_overlap",
                       f"entry ({addr:#x}, {size}) overlaps below "
                       f"{previous_end:#x}")
            if addr < base or addr + size > base + length:
                yield ("memcache.free_list_out_of_bounds",
                       f"entry ({addr:#x}, {size}) outside arena "
                       f"[{base:#x}, {base + length:#x})")
            previous_end = addr + size
            free_total += size
        if arena.used_bytes < 0:
            yield ("memcache.used_underflow",
                   f"used_bytes={arena.used_bytes}")
        if free_total + arena.used_bytes != length:
            yield ("memcache.arena_accounting",
                   f"free={free_total} used={arena.used_bytes} "
                   f"length={length}")
    spans.sort()
    for (a0, l0), (a1, _l1) in zip(spans, spans[1:]):
        if a0 + l0 > a1:
            yield ("memcache.arena_alias",
                   f"arenas at {a0:#x}(+{l0}) and {a1:#x} overlap")


def qp_violations(qp) -> Iterator[Tuple[str, str]]:
    """Queue-pair software state matches its verbs state machine."""
    if len(qp.sq) + len(qp.outstanding) > qp.sq_depth:
        yield ("qp.sq_overflow",
               f"qpn={qp.qpn} sq={len(qp.sq)} "
               f"outstanding={len(qp.outstanding)} depth={qp.sq_depth}")
    if len(qp.rq) > qp.rq_depth:
        yield ("qp.rq_overflow",
               f"qpn={qp.qpn} rq={len(qp.rq)} depth={qp.rq_depth}")
    if qp.state.name == "RESET" and (qp.sq or qp.outstanding
                                     or qp.current_tx is not None):
        yield ("qp.reset_with_work",
               f"qpn={qp.qpn} holds work in RESET")


def channel_violations(channel) -> Iterator[Tuple[str, str]]:
    """Channel send/delivery bookkeeping matches its window."""
    window = channel.window
    for seq in channel.sent:
        if not window.acked <= seq < window.seq:
            yield ("channel.sent_outside_window",
                   f"sent seq {seq} outside [{window.acked}, {window.seq})")
    if channel._next_deliver_seq > window.rta:
        yield ("channel.delivery_ahead_of_rta",
               f"next_deliver={channel._next_deliver_seq} rta={window.rta}")
    for seq in channel._pending_delivery:
        if seq < channel._next_deliver_seq:
            yield ("channel.stale_pending_delivery",
                   f"pending seq {seq} already delivered "
                   f"(next={channel._next_deliver_seq})")
    for seq in channel._rendezvous:
        if seq < window.rta:
            yield ("channel.rendezvous_behind_rta",
                   f"rendezvous seq {seq} < rta {window.rta}")
    yield from seqack_violations(window)
    yield from flow_violations(channel.flow)
    yield from qp_violations(channel.qp)


def context_violations(ctx) -> Iterator[Tuple[str, str]]:
    """Everything a context owns: channels, budget, memory cache."""
    for channel in ctx.channels.values():
        yield from channel_violations(channel)
    yield from budget_violations(ctx.wr_budget)
    yield from memcache_violations(ctx.memcache)


def verify_context(ctx, registry: Optional[InvariantRegistry] = None
                   ) -> List[Tuple[str, str]]:
    """Run the structural deep checks against ``ctx`` and record every
    violation in ``registry`` (default: the active one).  Returns the
    violations; in fatal mode the first one raises."""
    reg = registry if registry is not None else _active
    found: List[Tuple[str, str]] = []
    for name, detail in context_violations(ctx):
        found.append((name, detail))
        if reg is not None:
            reg.record(name, detail)
    return found
