"""Compare two ledger files: ``python -m bench.compare A.json B.json``.

A ledger is what ``bench/run.py --json OUT`` writes.  One row per
workload x end-to-end metric: both values, the ratio B/A with its base,
the bound from ``BENCHMARK.json`` and a verdict —

* ``worse`` / ``better``: B differs from A by more than the bound;
* ``same``: within the bound;
* ``unresolved``: the spread inside either run (inter-quartile range of
  its timed passes, or of its set-up samples, over their median) is wider
  than the bound, so this pair of runs cannot tell.  Simulated metrics
  repeat exactly and have no spread.

Exits 1 on any ``worse`` (or any run that was not correct).  With equal
seeds it also says whether every ``sim_*`` value is bit-identical, which
a change that only speeds the simulator up must keep.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def worse_by(metric: Dict[str, Any], base: float, value: float) -> float:
    """How much worse ``value`` is than ``base``, as a share of ``base``
    (negative: better)."""
    change = (value - base) / base
    return change if metric["better"] == "lower" else -change


#: where a run's ledger notes keep the within-run spread (inter-quartile
#: range / median of its samples) behind each host-time metric
_SPREAD_NOTE = {"wall_s": "pass_iqr_frac", "host_us_per_op": "pass_iqr_frac",
                "setup_s": "setup_iqr_frac"}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.compare")
    parser.add_argument("a", metavar="A.json", help="the base")
    parser.add_argument("b", metavar="B.json")
    args = parser.parse_args(argv)
    base, other = (json.loads(Path(path).read_text(encoding="utf-8"))
                   for path in (args.a, args.b))
    same_seed = base["seed"] == other["seed"]
    worse = 0
    sim_identical = True
    print(f"{'workload':14s} {'metric':17s} {'A':>14s} {'B':>14s} "
          f"{'B/A':>7s} {'bound':>5s} verdict")
    for workload, run_a in base["workloads"].items():
        run_b = other["workloads"].get(workload)
        if run_b is None:
            continue
        for run, label in ((run_a, "A"), (run_b, "B")):
            if not run["correct"] or run["failed"]:
                print(f"{workload:14s} run {label} was not correct "
                      f"({run['failed']} of {run['attempted']} failed)")
                worse += 1
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            if name not in run_a["metrics"] or name not in run_b["metrics"]:
                continue
            a = run_a["metrics"][name]["value"]
            b = run_b["metrics"][name]["value"]
            if name.startswith("sim_") and a != b:
                sim_identical = False
            change = worse_by(metric, a, b)
            note = _SPREAD_NOTE.get(name)
            spread = max(run["notes"].get(note, 0.0)
                         for run in (run_a, run_b))
            if spread > metric["bound"]:
                verdict = f"unresolved (spread {spread:.3f})"
            elif change > metric["bound"]:
                verdict = "worse"
                worse += 1
            elif change < -metric["bound"]:
                verdict = "better"
            else:
                verdict = "same"
            print(f"{workload:14s} {name:17s} {a:14.6f} {b:14.6f} "
                  f"{b / a:7.4f} {metric['bound']:5.2f} {verdict}"
                  f"  (base A, {metric['unit']}, {metric['better']} "
                  f"is better)")
        events = [run["metrics"].get("sim.events") for run in (run_a, run_b)]
        if events[0] != events[1]:      # per-layer; None on both if untraced
            sim_identical = False
    if same_seed:
        print(f"seed {base['seed']} on both sides: sim_* values and "
              "sim.events " + ("bit-identical" if sim_identical
                               else "DIFFER"))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
