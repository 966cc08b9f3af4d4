"""Is the benchmark steady enough for its own bounds?

``python3 bench/steadiness.py [--runs 10] [--first-seed 1] [--json OUT]
[--against EARLIER.json]`` runs every workload ``--runs`` times, each
time with another seed, and prints for each end-to-end metric the median
of the runs and their inter-quartile spread as a share of it (Python's
``statistics.quantiles(values, n=4)``), beside the metric's bound from
``BENCHMARK.json``.  A spread above the bound (``setup_s`` excepted)
fails; one above a third of it is flagged ``wide``.  ``--against`` also
fails any metric whose median is worse than the earlier file's by more
than the bound.  This is the check a change to the benchmark itself must
pass; a change to the program is judged with ``bench.compare``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.compare import SPEC, worse_by  # noqa: E402  (after the path)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.steadiness")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="only this workload (repeatable)")
    parser.add_argument("--json", metavar="OUT")
    parser.add_argument("--against", metavar="EARLIER")
    args = parser.parse_args(argv)
    earlier = (json.loads(Path(args.against).read_text(encoding="utf-8"))
               if args.against else {})
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    values: Dict[str, Dict[str, List[float]]] = {}
    failures = 0
    for workload in workloads:
        per_metric = values.setdefault(workload, {})
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if done.returncode:
                print(f"{workload} seed {seed}: exit {done.returncode}")
                failures += 1
                continue
            record = json.loads(done.stdout.strip().splitlines()[-1])
            for name, entry in record["metrics"].items():
                per_metric.setdefault(name, []).append(entry["value"])
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            runs = per_metric.get(name, [])
            if len(runs) < 2:
                continue
            median = statistics.median(runs)
            low, _, high = statistics.quantiles(runs, n=4)
            spread = (high - low) / median
            verdict = "ok"
            if spread > bound and name != "setup_s":
                verdict = "TOO WIDE"
                failures += 1
            elif spread > bound / 3:
                verdict = "wide"
            line = (f"{workload:14s} {name:18s} median {median:14.6f} "
                    f"{metric['unit']:5s} spread {spread:7.4f} "
                    f"bound {bound:5.2f} {verdict}")
            before = earlier.get(workload, {}).get(name)
            if before:
                drift = worse_by(metric, statistics.median(before), median)
                line += f"  vs earlier {drift:+.4f}"
                if drift > bound:
                    line += " WORSE"
                    failures += 1
            print(line, flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(values, indent=1) + "\n",
                                   encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
