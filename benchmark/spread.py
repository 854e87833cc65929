#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmark/spread.py --workload noise-sweep --seeds 1-10 \
        [--seconds S] [--trace 0|1] [--twice]

Runs the command from BENCHMARK.json once per seed (from the repository
root) and prints, per metric, the median of the values and the distance
between the first and third quartile as a share of that median, next to
the metric's bound. With --twice every seed runs a second time, and its
exact counts and quality line must repeat byte for byte. Exits 1 when a
run fails, a repeat differs, or a spread (other than setup_s's) is at or
above a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--twice", action="store_true")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    ok = True
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        runs = [subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                for _ in range(2 if args.twice else 1)]
        failed = [p for p in runs if p.returncode != 0 or not p.stdout.strip()]
        if failed:
            p = failed[0]
            print(f"seed {seed}: exit {p.returncode}\n{p.stdout}{p.stderr}")
            ok = False
            continue
        exact = [[line for line in p.stdout.splitlines()
                  if line.startswith(("count ", "quality:"))] for p in runs]
        if any(e != exact[0] for e in exact):
            print(f"seed {seed}: counts or quality differ between runs:\n"
                  + "\n".join(f"  {a}  |  {b}" for a, b in zip(*exact) if a != b))
            ok = False
        result = json.loads(runs[0].stdout.strip().splitlines()[-1])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
        else:
            spread = 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread >= bound / 3:
            flag = "  <-- at or above a third of the bound"
            ok = False
        print(f"{name:32s} median {med:12.6g}  spread {spread:7.4f}  bound {bound}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
