#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload svc_small_mixed --seeds 1-10 [--trace 0]

For every metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of that median, next to the metric's bound from BENCHMARK.json. A spread
above a third of the bound is flagged: the benchmark is then not steady
enough to tell a regression of that size from noise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if done.returncode != 0:
            sys.exit(f"seed {seed}: run failed with code {done.returncode}")
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        steal = next((line.split()[1] for line in lines if line.startswith("host steal_frac=")),
                     "steal_frac=?")
        if not result["correct"]:
            sys.exit(f"seed {seed}: run reported incorrect results")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} ({steal}): " + " ".join(
            f"{name}={metric['value']:.6g}" for name, metric in sorted(result["metrics"].items())),
            flush=True)

    print(f"\n{args.workload}: {len(next(iter(values.values())))} runs")
    for name, series in sorted(values.items()):
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <-- above a third of the bound"
        bound_text = f"bound {bound:.2f}" if bound is not None else ""
        print(f"  {name:32s} median {median:14.6g}  spread {spread:7.3f}  {bound_text}{flag}")


if __name__ == "__main__":
    main()
