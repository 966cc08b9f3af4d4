"""XR-Bench: the engine performance harness (events/sec trajectory).

Every benchmark in ``benchmarks/`` is an explicit scale-down because the
pure-Python event loop is the bottleneck; this tool is how we measure the
loop itself so optimizations have numbers and future PRs have a trajectory
to regress against.  Four microbenches cover the distinct hot paths:

* ``timer-churn``        — bare engine: Timeout allocation, heap ops,
                           process resume.  No fabric, no middleware.
* ``pingpong``           — closed-loop RPC over one channel: the context
                           poll loop, CQ delivery, seq-ack bookkeeping.
* ``incast-segment-storm`` — N→1 incast of large (rendezvous) messages:
                           segment-level queue dynamics, PFC/ECN hooks,
                           EgressPort transmit — the Fig. 10 hot path.
* ``memcache-churn``     — MemCache alloc/free under fragmentation: the
                           free-list data structure.

Each bench reports fired simulation events per wall-clock second
(``sim._sequence`` counts every scheduled event; a drained run fires all
of them) plus bench-specific throughput.  Results are deterministic in
*event counts* (fixed seeds) and machine-dependent only in wall time.

CLI::

    python -m repro.tools.xr_bench                 # full suite
    python -m repro.tools.xr_bench --quick         # CI smoke scale
    python -m repro.tools.xr_bench --json out.json # persist results
    python -m repro.tools.xr_bench --quick --baseline BENCH_PR14.json
                                                   # fail on >25% regression

``--baseline`` accepts either a file written by ``--json`` or a committed
trajectory file with one section per mode (it picks the section matching
the current mode): ``BENCH_PR14.json`` is the current one, two ``--json``
results (quick, full) side by side; ``BENCH_PR3.json`` is PR 3's
before/after record.

events/sec is **not comparable across a PR that removes events**: the
same workload finishing sooner with fewer events can read as a slowdown
(PR 14 fired 25% fewer events for bit-identical results).  Such a PR
commits a new baseline measured on its final tree and makes its speed
claim in wall time with the ``bench/`` ledger.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.cluster import build_cluster
from repro.sim.engine import Simulator
from repro.tools.xr_perf import XrPerf
from repro.xrdma.memcache import MemCache


def _wall() -> float:
    """Host wall clock for measuring *our own* speed.

    This is the one place wall time is legitimate: nothing simulated ever
    sees it, it only divides event counts.
    """
    return time.perf_counter()  # xr-lint: disable=wall-clock


_CAL_ITERS = 500_000


def calibration_score(repeats: int = 3) -> float:
    """Machine-speed proxy: iterations/sec of a fixed pure-Python loop.

    Absolute events/sec numbers are meaningless across machines (or even
    across minutes on a shared VM), so every results file carries this
    score and baseline comparisons scale by the ratio of scores.  Best-of
    is used for the same reason as in :func:`run_suite`: contention only
    ever lowers the score.
    """
    best = 0.0
    for _ in range(max(1, repeats)):
        t0 = _wall()
        acc = 0
        for i in range(_CAL_ITERS):
            acc += i & 7
        elapsed = _wall() - t0
        if elapsed > 0:
            best = max(best, _CAL_ITERS / elapsed)
    return best


@dataclass
class BenchResult:
    """One microbench outcome: simulated work per host second."""

    name: str
    events: int                  #: simulation events fired
    wall_s: float                #: host seconds for the measured region
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "events": self.events,
            "wall_s": round(self.wall_s, 4),
            "events_per_sec": round(self.events_per_sec),
        }
        payload.update(self.extra)
        return payload

    def summary(self) -> str:
        extras = " ".join(f"{key}={value}" for key, value in
                          sorted(self.extra.items()))
        return (f"{self.name:24s} {self.events:>9d} events "
                f"{self.wall_s:8.3f}s  {self.events_per_sec:>10,.0f} ev/s"
                + (f"  [{extras}]" if extras else ""))


# --------------------------------------------------------------- benches
def bench_timer_churn(quick: bool) -> BenchResult:
    """Bare engine: many processes churning timeouts, nothing else."""
    n_procs = 50 if quick else 200
    n_rounds = 60 if quick else 300
    sim = Simulator()

    def churner(index: int):
        # Deterministic pseudo-random delays without an RNG dependency.
        for round_no in range(n_rounds):
            yield sim.timeout((index * 7919 + round_no * 104729) % 997 + 1)

    for index in range(n_procs):
        sim.spawn(churner(index))
    t0 = _wall()
    sim.run()
    wall = _wall() - t0
    return BenchResult("timer-churn", sim._sequence, wall,
                       {"procs": n_procs, "rounds": n_rounds})


def bench_pingpong(quick: bool) -> BenchResult:
    """Closed-loop RPC latency: context poll loop + CQ + window."""
    iterations = 80 if quick else 400
    cluster = build_cluster(2, seed=3)
    perf = XrPerf(cluster)
    t0 = _wall()
    result = perf.run_latency(0, 1, size=256, iterations=iterations)
    wall = _wall() - t0
    return BenchResult("pingpong", cluster.sim._sequence, wall,
                       {"iterations": iterations,
                        "mean_latency_us": round(result.mean_latency_us, 2)})


def bench_incast_storm(quick: bool) -> BenchResult:
    """N→1 incast of rendezvous-sized messages: the segment hot path.

    Dense on purpose (short send gaps, deep port queues): a storm keeps
    every egress port busy and the event population high, which is
    exactly the regime where heap behaviour and per-segment overhead
    dominate — the Fig. 10 congestion scenario, not a trickle.
    """
    sources = list(range(3 if quick else 7))
    sink = sources[-1] + 1
    messages = 12 if quick else 48
    cluster = build_cluster(sink + 1, seed=7)
    perf = XrPerf(cluster)
    t0 = _wall()
    result = perf.run_incast(sources, sink, size=64 * 1024,
                             messages_per_source=messages,
                             mean_gap_ns=5_000)
    wall = _wall() - t0
    return BenchResult("incast-segment-storm", cluster.sim._sequence, wall,
                       {"sources": len(sources), "messages": result.messages,
                        "bytes_moved": result.bytes_moved})


def bench_memcache_churn(quick: bool) -> BenchResult:
    """MemCache alloc/free at production-scale fragmentation.

    Thousands of live buffers in mixed sizes — the regime the paper's
    middleware actually runs in (one cache serving every channel of a
    context) and where the free-list data structure is the bottleneck:
    small buffers shred the arenas into holes that every large
    allocation must skip past.
    """
    n_ops = 6_000 if quick else 30_000
    live_target = 600 if quick else 2_500
    cluster = build_cluster(1, seed=5)
    host = cluster.host(0)
    pd = host.verbs.alloc_pd()
    cache = MemCache(host.verbs, pd)
    sizes = [64, 128, 256, 512, 64 * 1024]
    allocs = 0

    def churn():
        nonlocal allocs
        live: List[Any] = []
        state = 12345
        for _ in range(n_ops):
            state = (state * 1103515245 + 12721) % (1 << 31)  # LCG, no RNG dep
            if live and (len(live) > live_target or state % 100 < 40):
                cache.free(live.pop(state % len(live)))
            else:
                buffer = yield from cache.alloc(sizes[state % len(sizes)])
                allocs += 1
                live.append(buffer)
        for buffer in live:
            cache.free(buffer)

    t0 = _wall()
    proc = cluster.sim.spawn(churn())
    cluster.sim.run_until_event(proc)
    wall = _wall() - t0
    return BenchResult("memcache-churn", cluster.sim._sequence, wall,
                       {"allocs": allocs,
                        "ops": n_ops,
                        "ops_per_sec": round(n_ops / wall) if wall else 0,
                        "arenas_peak": cache.grow_count})


BENCHES: Dict[str, Callable[[bool], BenchResult]] = {
    "timer-churn": bench_timer_churn,
    "pingpong": bench_pingpong,
    "incast-segment-storm": bench_incast_storm,
    "memcache-churn": bench_memcache_churn,
}


# ------------------------------------------------------------- harness
def run_suite(quick: bool = False,
              only: Optional[List[str]] = None,
              repeats: int = 1) -> Dict[str, BenchResult]:
    """Run the selected microbenches; keeps each bench's best of ``repeats``
    (wall-time noise only shrinks events/sec, never inflates it)."""
    names = only or list(BENCHES)
    results: Dict[str, BenchResult] = {}
    for name in names:
        if name not in BENCHES:
            raise SystemExit(f"unknown bench {name!r}; "
                             f"choose from {', '.join(BENCHES)}")
        best: Optional[BenchResult] = None
        for _ in range(max(1, repeats)):
            result = BENCHES[name](quick)
            if best is None or result.events_per_sec > best.events_per_sec:
                best = result
        assert best is not None
        results[name] = best
        print(best.summary())
    return results


class BaselineError(Exception):
    """A ``--baseline`` file that cannot be compared against.

    Raised *before* the suite runs: a CI job pointing at a renamed
    trajectory file or the wrong mode should fail in milliseconds with a
    usage error (exit 2), not burn minutes benchmarking and then silently
    skip the one check it existed for.
    """


def _baseline_section(payload: Dict[str, Any],
                      mode: str) -> Optional[Dict[str, Any]]:
    """Find comparable numbers in a results or trajectory file."""
    if payload.get("mode") == mode and "benches" in payload:
        return payload["benches"]
    section = payload.get(mode)
    if isinstance(section, dict):
        after = section.get("after", section)
        if isinstance(after, dict):
            return after
    return None


def load_baseline(baseline_path: str,
                  mode: str) -> Dict[str, Any]:
    """Read and validate a baseline file for ``mode``.

    Returns the full payload (the comparison re-derives the section);
    raises :class:`BaselineError` with a one-line reason if the file is
    missing, unparsable, or has no section for this mode.
    """
    try:
        with open(baseline_path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise BaselineError(
            f"cannot read baseline {baseline_path}: "
            f"{exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise BaselineError(
            f"baseline {baseline_path} is not valid JSON "
            f"(line {exc.lineno}: {exc.msg})") from exc
    if not isinstance(payload, dict) \
            or _baseline_section(payload, mode) is None:
        have = sorted(payload) if isinstance(payload, dict) else type(
            payload).__name__
        raise BaselineError(
            f"baseline {baseline_path} has no {mode!r} section "
            f"(top-level keys: {have}); run the matching mode or point "
            f"--baseline at a file written by --json")
    return payload


def compare_to_baseline(results: Dict[str, BenchResult],
                        payload: Dict[str, Any], mode: str,
                        max_regression: float) -> int:
    """Return the number of benches regressing more than the budget.

    If the baseline file carries a ``calibration`` score, the reference
    numbers are rescaled by this machine's score first — otherwise a
    faster or slower runner would fail (or mask) every comparison.
    """
    baseline = _baseline_section(payload, mode)
    assert baseline is not None     # load_baseline validated this
    scale = 1.0
    cal_base = payload.get("calibration")
    if cal_base:
        cal_now = calibration_score()
        scale = cal_now / cal_base
        print(f"xr-bench: calibration {cal_now:,.0f}/s vs baseline "
              f"{cal_base:,.0f}/s — scaling references by {scale:.2f}x")
    failures = 0
    for name, result in results.items():
        reference = baseline.get(name, {}).get("events_per_sec")
        if not reference:
            continue
        reference *= scale
        ratio = result.events_per_sec / reference
        verdict = "ok"
        if ratio < 1.0 - max_regression:
            verdict = "REGRESSION"
            failures += 1
        print(f"  {name:24s} {result.events_per_sec:>10,.0f} ev/s "
              f"vs baseline {reference:>10,.0f}  ({ratio:5.2f}x) {verdict}")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="xr_bench", description="X-RDMA engine microbenchmarks")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke scale (seconds, not minutes)")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help=f"run one bench ({', '.join(BENCHES)})")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per bench; best events/sec kept")
    parser.add_argument("--json", metavar="PATH",
                        help="write results to PATH as JSON")
    parser.add_argument("--baseline", metavar="PATH",
                        help="compare against a results/trajectory file")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed events/sec drop vs baseline "
                             "(default 0.25)")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    baseline_payload: Optional[Dict[str, Any]] = None
    if args.baseline:
        # Validate up front: a bad baseline is a usage error, not a
        # post-suite surprise.
        try:
            baseline_payload = load_baseline(args.baseline, mode)
        except BaselineError as exc:
            print(f"xr-bench: {exc}", file=sys.stderr)
            return 2

    print(f"xr-bench [{mode}]")
    results = run_suite(quick=args.quick, only=args.only,
                        repeats=args.repeats)

    if args.json:
        payload = {
            "mode": mode,
            "calibration": round(calibration_score()),
            "benches": {name: result.as_dict()
                        for name, result in results.items()},
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"xr-bench: wrote {args.json}")

    if baseline_payload is not None:
        failures = compare_to_baseline(results, baseline_payload, mode,
                                       args.max_regression)
        if failures:
            print(f"xr-bench: {failures} bench(es) regressed more than "
                  f"{args.max_regression:.0%}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
