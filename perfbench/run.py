"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rq_distinct --seed 1 --seconds 18 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the traced
pass and reports the per-layer metrics instead (see ``layers.py``).  The
workloads are described in ``workloads.py`` and in ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
non-zero on a wrong answer or a failed workload self-check, and when the
checkout holds no ``src/repro`` package to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")


def _import_program() -> None:
    """Put the checkout's own ``src/repro`` first on the path, or exit."""
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"perfbench: no src/repro package under {ROOT}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SOURCE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SOURCE + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SOURCE}", file=sys.stderr)
        sys.exit(2)


def _report(args, outcome, kernel: str) -> None:
    from stats import tail_percentile

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"kernel={kernel} python={platform.python_version()} nproc={os.cpu_count()}")
    for name, metric in outcome.metrics.items():
        line = f"  {name:<32} {metric.value:>14.4f} {metric.unit:<6}"
        if metric.raw is not None:
            line += f" raw={metric.raw:.4f}"
        if metric.samples is not None:
            line += f" n={metric.samples}"
            if name.endswith("_p95"):
                tail = tail_percentile(metric.samples)
                line += f" (highest supported percentile: {'none' if tail is None else f'p{tail:g}'})"
        print(line)
    for key, value in outcome.notes.items():
        print(f"  note {key}: {value}")
    for problem in outcome.problems[:20]:
        print(f"  PROBLEM {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an exception, so the cleanup below and
    # in the workloads (reference workers, the service) still runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    _import_program()
    import layers
    import workloads as wl
    from repro.kernels import active_kernel_name

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {wl.WORKLOADS}")
    sizes = wl.Sizes()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            if args.workload == "serve_rw":
                outcome = layers.trace_serve(args.seed, sizes, workdir)
            else:
                outcome = layers.trace_in_process(args.workload, args.seed, sizes, workdir)
        elif args.workload == "serve_rw":
            outcome = wl.run_serve(args.seed, args.seconds, sizes, workdir)
        else:
            outcome = wl.run_in_process(args.workload, args.seed, args.seconds, sizes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _report(args, outcome, active_kernel_name())
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metric.value, "unit": metric.unit}
            for name, metric in outcome.metrics.items()
        },
    }))
    return 1 if outcome.problems or not outcome.correct else 0


if __name__ == "__main__":
    sys.exit(main())
