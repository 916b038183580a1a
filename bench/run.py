"""Benchmark of the three-stage pipeline, run as one process from the repo root.

    python3 bench/run.py --workload translator-default --seed 1 --seconds 20 --trace 0

Prints the environment, a table of every metric with its unit, and as the
last line a JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of traced passes and writes every span to
``.bench_out/trace-<workload>-seed<seed>.json``. Exits non-zero when an
output check fails. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: on a shared 2-vCPU machine two threads wait on each other
# whenever the other vCPU is busy, which doubles the run-to-run spread, while
# the arrays here are too small for a second thread to gain much.
BLAS_THREADS = "1"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_threads() -> None:
    """Fix the BLAS thread count before numpy loads."""
    for name in THREAD_VARIABLES:
        os.environ[name] = BLAS_THREADS


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_table(rows) -> None:
    for name, value, unit, note in rows:
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>12s} {unit:10s} {note}")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    package = ROOT / "src" / "sca_stereo"
    if not package.is_dir():
        print(f"no package at {package}; run from a checkout of the repository", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # loads numpy and the package, after the threads are pinned

    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    env = harness.environment(ROOT, THREAD_VARIABLES)
    print(f"environment {json.dumps(env, sort_keys=True)}")
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    for error in result.errors:
        print(f"check failed: {error}", file=sys.stderr)

    print(f"workload {args.workload}: {len(result.passes)} set-ups and passes, seed {args.seed}")
    metrics: dict[str, dict] = {}
    if result.correct:
        if args.trace:
            values = harness.per_layer(result)
            spec = harness.PER_LAYER
            print("per-layer metrics (traced passes; self time excludes child spans):")
            trace_file = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({"environment": env, "metrics": values, **result.tracer.to_json()}))
            print(f"spans written to {trace_file.relative_to(ROOT)}")
        else:
            values = harness.end_to_end(result)
            spec = harness.END_TO_END
            print("stage metrics:")
            _print_table(harness.stage_table(result))
            print("end-to-end metrics:")
        _print_table((name, values[name], unit, "") for name, unit, _ in spec)
        if all(math.isfinite(values[name]) for name, _, _ in spec):
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
        else:
            result.correct = False
            print("check failed: a metric has no samples", file=sys.stderr)
    print(
        json.dumps(
            {"correct": result.correct, "attempted": max(result.attempted, 1), "failed": result.failed, "metrics": metrics}
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
