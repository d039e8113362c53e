"""Run one workload over several seeds and summarise each end-to-end metric.

Usage, from the root of a checkout::

    python3 perfbench/seeds.py --workload rq_distinct --seeds 1-10
    python3 perfbench/seeds.py --workload rq_distinct --seeds 1-10 --against 101-110

For each metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  With ``--against`` it runs a second
seed set and compares the two medians, so a claim made on the seeds used
while writing a change can be confirmed on seeds that were not; a metric
whose second median is worse than the first by more than its bound is
flagged.  The exit status is non-zero when a run fails or a check is missed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> List[int]:
    """``"1-5,9"`` -> ``[1, 2, 3, 4, 5, 9]``."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_seeds(workload: str, seeds: List[int], seconds: int) -> Dict[str, List[float]]:
    values: Dict[str, List[float]] = {}
    for seed in seeds:
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if completed.returncode != 0:
            raise SystemExit(f"seed {seed}: exit {completed.returncode}\n{completed.stdout}"
                             f"{completed.stderr}")
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"  seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()),
            file=sys.stderr)
    return values


def spread(values: List[float]) -> float:
    q1, middle, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / middle if middle else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--against", type=parse_seeds)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]
    metrics = {metric["name"]: metric for metric in benchmark["end_to_end"]}

    first = run_seeds(args.workload, args.seeds, seconds)
    second = run_seeds(args.workload, args.against, seconds) if args.against else None
    ok = True
    print(f"workload={args.workload} seeds={args.seeds} seconds={seconds}")
    for name, metric in metrics.items():
        values = first[name]
        share = spread(values)
        steady = share <= metric["bound"]
        line = (f"  {name:<16} median={statistics.median(values):<12.4f} "
                f"spread={share:.3f} bound={metric['bound']} "
                f"{'ok' if steady else 'SPREAD OVER BOUND'}")
        ok = ok and steady
        if second is not None:
            change = worse_by(statistics.median(values), statistics.median(second[name]),
                              metric["better"])
            agrees = change <= metric["bound"]
            ok = ok and agrees
            line += (f" | second median={statistics.median(second[name]):.4f} "
                     f"worse_by={change:+.3f} {'ok' if agrees else 'WORSE THAN BOUND'}")
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
