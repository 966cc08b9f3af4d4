"""Run the benchmark: ``python3 bench/run.py --workload W --seed S``.

One invocation measures one workload (or, without ``--workload``, each of
the four in turn).  Every pass runs in a child process, one at a time and
single-threaded — the DES is one thread and nothing else may generate
load.  With ``--trace 0`` the end-to-end metrics are printed, measured on
untraced passes; with ``--trace 1`` the per-layer metrics, from a separate
child that adds instrumented and profiled passes; ``--trace both`` does
one after the other (for a ledger file).  Every metric is printed by name
with its unit, outputs are checked, and the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Any
correctness miss prints what missed and exits non-zero.

Metric names, units, directions and bounds live in ``BENCHMARK.json``;
what each means is in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from bench.reference import REFERENCE_S, time_reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]
OUT_DIR = ROOT / "bench" / "out"

#: set-up samples per run (each a fresh process: imports, build, connect,
#: a few first operations); ``setup_s`` is their median at reference speed
SETUP_SAMPLES = 5
#: a child that has not finished by then is killed and the run fails
CHILD_TIMEOUT_S = 170.0
MIN_PASSES, MAX_PASSES = 5, 12


def at_reference_speed(samples: List[float], references: List[float]
                       ) -> float:
    """Median of ``samples`` in seconds at reference speed.

    ``references`` are times of the reference kernel taken in between the
    samples.  The machine's speed drifts by 10–40% for minutes at a time;
    scaling by it halved (or better) the spread between 20-s runs of one
    seed and brought the drift between ten-run sets from 19% to under 1%
    (README, *Run shape* and *Steadiness*).
    """
    return (statistics.median(samples)
            * REFERENCE_S / statistics.median(references))


def iqr_frac(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return (high - low) / statistics.median(values)


# ================================================================ children
def _sim_problems(first, others) -> List[str]:
    """Correctness gate over the passes of one child."""
    problems = []
    reference = first.fingerprint()
    for index, other in enumerate(others, start=2):
        fingerprint = other.fingerprint()
        for key, value in reference.items():
            if fingerprint[key] != value:
                problems.append(f"pass {index} differs from pass 1 in "
                                f"{key}: {fingerprint[key]!r} != {value!r}")
    for name, ok in first.checks.items():
        if not ok:
            problems.append(f"check failed: {name}")
    if first.failed:
        problems.append(f"{first.failed} of {first.attempted} operations "
                        f"failed or did not complete")
    violations = first.invariant_violations + sum(
        other.invariant_violations for other in others)
    if violations:
        problems.append(f"{violations} invariant violation(s)")
    return problems


def child_measure(workload: str, seed: int, seconds: float,
                  quick: bool) -> Dict[str, Any]:
    """Warm-up pass, then timed passes of the identical seeded workload
    until ``seconds`` of passes have run (at least MIN_PASSES), each
    preceded by one run of the reference kernel."""
    from bench.workloads import run_pass
    run_pass(workload, seed, "quick")                   # warm-up, discarded
    passes = []
    references = []
    spent = 0.0
    while len(passes) < (2 if quick else MAX_PASSES):
        references.append(time_reference())
        result = run_pass(workload, seed, "quick" if quick else "full")
        passes.append(result)
        spent += result.wall_s
        if (not quick and len(passes) >= MIN_PASSES
                and spent + result.wall_s > seconds):
            break
    first = passes[0]
    walls = [result.wall_s for result in passes]
    wall_s = at_reference_speed(walls, references)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "metrics": {
            "wall_s": wall_s,
            "host_us_per_op": wall_s / first.completed * 1e6,
            "peak_rss_mb": peak_rss_kb / 1024,
            "sim_p50_us": first.sim_p50_us,
            "sim_tail_us": first.sim_tail_us,
            "sim_goodput_gbps": first.sim_goodput_gbps,
            "sim_ops_per_s": first.sim_ops_per_s,
        },
        "attempted": sum(result.attempted for result in passes),
        "failed": sum(result.failed for result in passes),
        "problems": _sim_problems(first, passes[1:]),
        "notes": {"passes": len(passes), "pass_wall_s": walls,
                  "reference_s": references,
                  "pass_iqr_frac": iqr_frac(walls),
                  "latency_samples": first.latency_samples,
                  "tail_percentile": first.tail_percentile},
    }


def child_trace(workload: str, seed: int, quick: bool) -> Dict[str, Any]:
    """Per-layer numbers: untraced passes for the counters and the
    overhead base, two instrumented passes (TieAudit, counting invariant
    hooks, XR-Trace where it applies), one pass under cProfile, and the
    two single-layer probes."""
    from bench.layers import LAYERS, profile_layers
    from bench.workloads import SEGMENT_STAGES, run_pass, serving_slo_rate
    from repro.tools import xr_bench
    scale = "quick" if quick else "full"
    run_pass(workload, seed, "quick")                   # warm-up, discarded
    references = []
    plain = []
    for _ in range(2 if quick else 3):
        references.append(time_reference())
        plain.append(run_pass(workload, seed, scale))
    audited = [run_pass(workload, seed, scale, instrument=True)
               for _ in range(2)]
    profiled, table, profiled_s = profile_layers(
        lambda: run_pass(workload, seed, scale))
    first = plain[0]
    walls = [result.wall_s for result in plain]
    wall_median = statistics.median(walls)

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = table[layer]["self_s"]
        metrics[f"{layer}.calls"] = table[layer]["calls"]
    metrics.update(first.counters)
    for stage in SEGMENT_STAGES:
        metrics[f"xrdma.seg.{stage}.p99_us"] = \
            audited[0].seg_p99_us.get(stage, 0.0)
    digest_stable = bool(audited[0].digest) \
        and audited[0].digest == audited[1].digest
    metrics.update({
        "sim.events": first.events,
        "sim.events_per_op": first.events / first.completed,
        "sim.events_per_s": first.events / wall_median,
        "sim.latency_samples": first.latency_samples,
        "sim.tail_percentile": first.tail_percentile,
        "sim.schedule_digest_stable": int(digest_stable),
        "sim.timer_churn_events_per_s":
            xr_bench.bench_timer_churn(quick).events_per_sec,
        "xrdma.memcache_churn_ops_per_s":
            xr_bench.bench_memcache_churn(quick).extra["ops_per_sec"],
        "serving.slo_rate_rps":
            serving_slo_rate(seed, quick)
            if workload == "serving-mix" else 0.0,
        "analysis.invariant_violations":
            sum(result.invariant_violations
                for result in plain + audited + [profiled]),
        "host.passes": len(plain),
        "host.reference_s": statistics.median(references),
        "host.wall_median_s": wall_median,
        "host.cpu_s": statistics.median(r.cpu_s for r in plain),
        "host.pass_iqr_frac": iqr_frac(walls),
        "trace.profiled_s": profiled_s,
        "trace.overhead_ratio": profiled.wall_s / wall_median,
    })

    problems = _sim_problems(first, plain[1:] + [profiled])
    problems += _sim_problems(audited[0], audited[1:])
    if not digest_stable:
        problems.append("TieAudit digests of the two instrumented passes "
                        "differ")
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload}.json"
    trace_path.write_text(json.dumps({
        "workload": workload, "seed": seed, "scale": scale,
        # spans of an untraced pass; the layer table is the profiled pass
        "spans": first.spans, "profiled_spans": profiled.spans,
        "profiled_s": profiled_s, "layers": table,
    }, indent=1) + "\n", encoding="utf-8")
    return {"metrics": metrics, "attempted": first.attempted,
            "failed": first.failed, "problems": problems,
            "notes": {"trace_file": str(trace_path.relative_to(ROOT))}}


def child_main(args: argparse.Namespace) -> int:
    if args.child == "setup":
        from bench.workloads import run_pass
        run_pass(args.workload, args.seed, "setup")
        return 0
    if args.child == "measure":
        payload = child_measure(args.workload, args.seed, args.seconds,
                                args.quick)
    else:
        payload = child_trace(args.workload, args.seed, args.quick)
    print(json.dumps(payload))
    return 0


# ================================================================== parent
def _spawn(mode: str, args: argparse.Namespace, workload: str) -> str:
    """Run one child to completion; returns its stdout."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--child", mode, "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.quick:
        command.append("--quick")
    # subprocess.run kills and reaps the child if the timeout expires.
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return done.stdout


def run_workload(workload: str, args: argparse.Namespace,
                 modes: List[str]) -> Dict[str, Any]:
    """All children of one workload; returns its result record."""
    metrics: Dict[str, float] = {}
    problems: List[str] = []
    notes: Dict[str, Any] = {}
    attempted = failed = 0
    expected: List[Dict[str, str]] = []
    if "0" in modes:
        expected += SPEC["end_to_end"]
        samples = []
        references = []
        for _ in range(2 if args.quick else SETUP_SAMPLES):
            references.append(time_reference())
            started = time.perf_counter()
            _spawn("setup", args, workload)
            samples.append(time.perf_counter() - started)
        metrics["setup_s"] = at_reference_speed(samples, references)
        notes["setup_samples_s"] = samples
        notes["setup_iqr_frac"] = iqr_frac(samples)
    for mode, child in (("0", "measure"), ("1", "trace")):
        if mode not in modes:
            continue
        payload = json.loads(_spawn(child, args, workload)
                             .strip().splitlines()[-1])
        metrics.update(payload["metrics"])
        problems += payload["problems"]
        notes.update(payload["notes"])
        attempted += payload["attempted"]
        failed += payload["failed"]
    if "1" in modes:
        expected += SPEC["per_layer"]
    units = {entry["name"]: entry["unit"] for entry in expected}
    for name in sorted(set(units) ^ set(metrics)):
        problems.append(f"metric {name} is "
                        + ("declared in BENCHMARK.json but not measured"
                           if name in units else
                           "measured but not declared in BENCHMARK.json"))
    record = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    for name, entry in record["metrics"].items():
        print(f"{workload:14s} {name:38s} {entry['value']:>16.6f} "
              f"{entry['unit']}")
    for key in ("passes", "latency_samples", "tail_percentile",
                "trace_file"):
        if key in notes:
            print(f"{workload:14s} ({key} = {notes[key]})")
    for problem in problems:
        print(f"{workload:14s} FAILED: {problem}")
    return {"record": record, "notes": notes}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench.run", description="X-RDMA repro benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: each in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="timed-pass budget of one run")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=("0", "1", "both"),
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale: short passes, 1 warm-up + 2")
    parser.add_argument("--json", metavar="OUT",
                        help="write a ledger file (input of bench.compare)")
    parser.add_argument("--child", choices=("setup", "measure", "trace"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench.run: {ROOT / 'src' / 'repro'} is missing — the "
              f"benchmark measures that package", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    modes = ["0", "1"] if args.trace == "both" else [args.trace]
    ledger: Dict[str, Any] = {"seed": args.seed, "quick": args.quick,
                              "seconds": args.seconds, "workloads": {}}
    records = []
    for workload in ([args.workload] if args.workload else WORKLOAD_NAMES):
        try:
            outcome = run_workload(workload, args, modes)
        except subprocess.SubprocessError as exc:
            print(f"bench.run: {workload}: {exc}", file=sys.stderr)
            return 2
        records.append(outcome["record"])
        ledger["workloads"][workload] = {**outcome["record"],
                                         "notes": outcome["notes"]}
    if args.json:
        Path(args.json).write_text(json.dumps(ledger, indent=1) + "\n",
                                   encoding="utf-8")
    for record in records:
        print(json.dumps(record))
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
