#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload <name> [--seeds 1-10] [--seconds 10]

Runs run.py once per seed and prints, for each end-to-end metric, the
median, the quartiles (statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json. Exits non-zero when a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            print(proc.stdout[-2000:])
            return 1
        result = json.loads(lines[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(
            f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        bound = bounds.get(name)
        print(f"{name:<28} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.3f} {bound if bound is not None else '-':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
