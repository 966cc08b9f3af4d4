"""Golden-digest equivalence: the optimized hot path fires the same schedule.

The PR 3 optimizations (slotted events, lazy names, the invariant fast
path, the memcache free list, the inlined run loops) are only
safe because the schedule is provably unchanged.  Each scenario here runs
under :class:`TieAudit` and must reproduce the checked-in golden digest
byte for byte, with zero tie anomalies.  Any engine change that reorders,
adds, or drops events — however "equivalent" it looks — fails loudly.

A change that *removes* events on purpose re-derives the goldens it
moves and proves the results another way.  The two incast goldens were
re-derived when the egress ports became callback-driven and the
context's idle wait lost its AnyOf relay (2 557 / 2 582 -> 2 078 / 2 083
pops: no per-idle-gap wake event, no relay, no abandoned deadline
timers), and again when a verbs call became one event instead of a cost
timeout plus a relay event (-> 1 756 / 1 761 pops); that change also
re-derived ``memcache-churn``, whose 6 rounds fell to 19 pops, under the
30-pop floor — it now runs 16 rounds (42 pops; 81 before the relay went).
``timer-churn`` has never moved, and every ``sim_*`` result of the four
``bench/`` workloads and ``golden_xr_trace.json`` stayed byte-identical
each time (DESIGN.md, "digest equivalence is the license to optimize").

To bless an *intentional* schedule change, regenerate the goldens:

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest -q \
        tests/scenarios/test_digest_equivalence.py

then review the diff of ``golden_digests.json`` like any other code.
"""

import json
import os
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import ClockSync, Tracer, invariants
from repro.cluster import build_cluster
from repro.sim import SECONDS, Simulator
from repro.xrdma import XrdmaConfig
from repro.xrdma.memcache import MemCache, _Arena

from tests.scenarios.test_determinism import incast

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")


# ------------------------------------------------------------- scenarios
# Each scenario returns its TieAudit and the cluster it ran on (None for
# the pure-engine one), so other tests can price the same runs.
def run_timer_churn():
    """Pure-engine schedule: timeout allocation, heap order, resume."""
    sim = Simulator()
    audit = sim.enable_tie_audit()

    def churner(index):
        for round_no in range(40):
            yield sim.timeout((index * 7919 + round_no * 104729) % 997 + 1)

    for index in range(25):
        sim.spawn(churner(index))
    sim.run()
    return audit, None


def run_memcache_churn():
    """Grow/shrink churn: the arena (MR registration) event schedule.

    Placement inside an arena is schedule-invisible (sub-allocation never
    yields), so this scenario drives what *is* visible: repeated growth
    under fragmented load and shrink cycles that force re-registration —
    if the allocator packs differently, the growth schedule moves.
    """
    cluster = build_cluster(1, seed=5)
    audit = cluster.sim.enable_tie_audit()
    host = cluster.host(0)
    cache = MemCache(host.verbs, host.verbs.alloc_pd(), mr_bytes=128 * 1024)
    sizes = [256, 4096, 1024, 16 * 1024, 512, 64 * 1024, 2048, 8192]

    def churn():
        for round_no in range(16):
            live = []
            for op in range(40):
                buffer = yield from cache.alloc(
                    sizes[(op + round_no) % len(sizes)])
                live.append(buffer)
                if len(live) >= 24:
                    cache.free(live.pop(0))
                    cache.free(live.pop(len(live) // 2))
            for buffer in live:
                cache.free(buffer)
            cache.shrink()

    proc = cluster.sim.spawn(churn())
    cluster.sim.run_until_event(proc)
    return audit, cluster


def run_incast_audit(seed):
    cluster, _result = incast(seed)
    return cluster.sim.tie_audit, cluster


SCENARIOS = {
    "incast-seed11": lambda: run_incast_audit(11),
    "incast-seed12": lambda: run_incast_audit(12),
    "timer-churn": run_timer_churn,
    "memcache-churn": run_memcache_churn,
}


def _load_golden():
    with GOLDEN_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def _update_golden(name, audit):
    golden = _load_golden() if GOLDEN_PATH.exists() else {}
    golden[name] = {"digest": audit.digest(), "pops": audit.pops}
    with GOLDEN_PATH.open("w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------- tests
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_matches_golden_digest(name):
    audit, _cluster = SCENARIOS[name]()
    assert audit.pops >= 30, "scenario too small to pin anything"
    assert audit.anomalies == 0, audit.summary()
    if os.environ.get("REGEN_GOLDEN"):
        _update_golden(name, audit)
        pytest.skip(f"regenerated golden digest for {name}")
    golden = _load_golden()[name]
    assert audit.pops == golden["pops"], audit.summary()
    assert audit.digest() == golden["digest"], (
        f"{name}: schedule changed — if intentional, regenerate goldens "
        f"(see module docstring) and review the diff")


def test_disabled_invariants_do_not_change_the_schedule():
    """The sanitizer fast path must be schedule-neutral.

    The gated call sites skip closure allocation when no registry is
    installed; none of that may create, drop, or reorder events.  The
    autouse fixture installs a fatal registry, so the "on" run is the
    fixture default and the "off" run uninstalls it temporarily.
    """
    audit_on, _cluster = SCENARIOS["incast-seed11"]()
    assert invariants.enabled(), "expected the autouse fatal registry"
    saved = invariants.uninstall()
    try:
        audit_off, _cluster = SCENARIOS["incast-seed11"]()
    finally:
        invariants.install(saved)
    assert audit_on.digest() == audit_off.digest()
    assert audit_on.pops == audit_off.pops


def test_tracing_is_digest_neutral():
    """XR-Trace marks are passive timestamp captures: attaching tracers
    (req-rsp mode, every message sampled, small and rendezvous paths)
    must not create, drop, or reorder a single event — byte-identical
    schedule digests with and without the tracer."""
    def run(traced):
        cluster = build_cluster(2, seed=21)
        audit = cluster.sim.enable_tie_audit()
        config = XrdmaConfig(req_rsp_mode=True, trace_sample_mask=1)
        client = cluster.xrdma_context(0, config=config)
        server = cluster.xrdma_context(1, config=config)
        if traced:
            sync = ClockSync(cluster.rng)
            Tracer(client, sync)
            Tracer(server, sync)
        accepted = server.listen(9400)

        def scenario():
            channel = yield from client.connect(1, 9400)
            server_channel = yield accepted.get()
            server_channel.on_request = \
                lambda msg: server.send_response(msg, 64)
            for size in (64, 2048, 256 * 1024):
                for _ in range(4):
                    request = client.send_request(channel, size)
                    yield request.response

        proc = cluster.sim.spawn(scenario())
        cluster.sim.run_until_event(proc, limit=60 * SECONDS)
        return audit

    audit_on, audit_off = run(True), run(False)
    assert audit_on.pops == audit_off.pops
    assert audit_on.digest() == audit_off.digest()


class _FakeMr:
    addr, length = 0x4000, 1 << 20


class _ReferenceArena:
    """The independent oracle: address-sorted first-fit scan, and a
    release that appends, re-sorts and merges the whole list."""

    def __init__(self, mr=_FakeMr):
        self.free = [(mr.addr, mr.length)]

    def alloc(self, size):
        for index, (addr, length) in enumerate(self.free):
            if length >= size:
                if length == size:
                    del self.free[index]
                else:
                    self.free[index] = (addr + size, length - size)
                return addr
        return None

    def release(self, addr, size):
        self.free.append((addr, size))
        self.free.sort()
        merged = []
        for a, length in self.free:
            if merged and merged[-1][0] + merged[-1][1] == a:
                merged[-1] = (merged[-1][0], merged[-1][1] + length)
            else:
                merged.append((a, length))
        self.free = merged


def _replay(arena, reference, ops):
    """Apply ``("alloc", size)`` / ``("free", index into live)`` steps to
    both arenas; placement, free list and ``used_bytes`` must agree after
    every one of them."""
    live = []
    for step, (op, value) in enumerate(ops):
        if op == "free":
            if not live:
                continue
            addr, size = live.pop(value % len(live))
            arena.release(addr, size)
            reference.release(addr, size)
        else:
            got, want = arena.alloc(value), reference.alloc(value)
            assert got == want, f"step {step}: {got} != {want}"
            if got is not None:
                live.append((got, value))
        assert arena.free == reference.free, f"step {step}"
        assert arena.used_bytes == sum(size for _, size in live)


def test_free_list_matches_sort_and_merge_reference():
    """Placement-level proof over a long churn: the arena returns the
    exact addresses the naive sort-and-merge first-fit list would."""
    sizes = [64, 256, 1024, 4096, 16384, 65536]
    ops, state = [], 12345
    for _ in range(6000):
        state = (state * 1103515245 + 12721) % (1 << 31)   # deterministic LCG
        if state % 100 < 45:
            ops.append(("free", state))
        else:
            ops.append(("alloc", sizes[state % len(sizes)]))
    _replay(_Arena(_FakeMr()), _ReferenceArena(), ops)


class _SmallMr:
    addr, length = 0x4000, 1024


_FILL = [("alloc", 256)] * 4                  # four blocks: arena full


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.just("alloc"), st.sampled_from([64, 128, 256, 512, 1024])),
    st.tuples(st.just("free"), st.integers(0, 15))), max_size=60))
# Full arena, then releases with no free neighbour, a free right
# neighbour, free neighbours on both sides; refill, a free left
# neighbour, and an exact fit into the merged block.
@example(_FILL + [("free", 1), ("free", 0), ("free", 1), ("free", 0)]
         + _FILL + [("free", 0), ("free", 0), ("alloc", 512)])
def test_property_free_list_matches_reference(ops):
    _replay(_Arena(_SmallMr()), _ReferenceArena(_SmallMr), ops)
