#!/usr/bin/env python3
"""Run the benchmark several times and summarise each end-to-end metric.

With one binary this reports the spread the benchmark's acceptance rule
uses: the distance between the first and third quartile of the runs,
as a share of their median. With two binaries (say the parent commit's
and a change's, each built into its own target directory) it alternates
them run by run, which side goes first changing every pair, and reports
each side's median and quartiles, the change's median relative to the
parent's, and how many pairs the change won.

    python3 perfbench/compare.py --workload serve --runs 10 BIN [BIN2]

Runs are untraced and last BENCHMARK.json's run_seconds. Seeds are
1..runs (each pair shares its seed); pass --seed-base to use others.
Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(binary, workload, seed, seconds):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{binary} seed {seed}: incorrect result {result['failed']}/{result['attempted']}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("binaries", nargs="+")
    args = ap.parse_args()
    if len(args.binaries) > 2:
        sys.exit("give one or two binaries")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    runs = [[] for _ in args.binaries]
    for i in range(args.runs):
        seed = args.seed_base + i
        order = list(range(len(args.binaries)))
        if i % 2:
            order.reverse()
        for side in order:
            runs[side].append(run_once(args.binaries[side], args.workload, seed, spec["run_seconds"]))
            print(f"run {i + 1}/{args.runs} side {side} done", file=sys.stderr)

    for metric in spec["end_to_end"]:
        name = metric["name"]
        sides = [[r[name] for r in side] for side in runs]
        cols = []
        for values in sides:
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            cols.append(f"median {med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}")
        line = f"{name:16s} " + " | ".join(cols) + f" (bound {metric['bound']})"
        if len(sides) == 2:
            a, b = sides
            ratio = statistics.median(b) / statistics.median(a)
            higher = metric["better"] == "higher"
            wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
            line += f" change/parent {ratio:.3f}, change won {wins}/{len(a)}"
        print(line)
        for side, values in enumerate(sides):
            print(f"    runs{side}: " + " ".join(f"{v:.4g}" for v in values))


if __name__ == "__main__":
    main()
