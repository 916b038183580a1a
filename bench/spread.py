"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --seeds 1-10 [--workload NAME ...] [--record]

Runs ``bench/run.py`` once per seed and workload, one run at a time, and
prints for every metric the median and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the bound in BENCHMARK.json. ``--record`` writes the
figures to bench/BASELINE.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance over the median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    baseline = {"seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                ok = False
                continue
            runs.append(result["metrics"])
            env = [line for line in proc.stdout.splitlines() if line.startswith("environment ")]
            baseline.setdefault("environment", json.loads(env[0].split(" ", 1)[1]) if env else None)
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s  {shown}", flush=True)
        if len(runs) < 2:
            continue
        rows = {}
        for name, bound in bounds.items():
            median, share = spread([r[name]["value"] for r in runs])
            rows[name] = {"median": median, "spread": share, "values": [r[name]["value"] for r in runs]}
            flag = "" if share < bound / 3 else ("  above bound/3" if share <= bound else "  ABOVE BOUND")
            print(f"  {name:22s} median {median:12.6g}  spread {share:6.3f}  bound {bound:.2f}{flag}")
        baseline["workloads"][workload] = rows
    if args.record:
        out = ROOT / "bench" / "BASELINE.json"
        out.write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"wrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
