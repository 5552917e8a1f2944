#!/usr/bin/env python3
"""Steadiness check: run each workload on several seeds and report spreads.

Usage (from the root of a gralmatch checkout):

    python3 e2ebench/steady.py [--workloads a,b] [--seeds 1-10]
                               [--seconds S] [--trace 0|1] [--out FILE]

For every workload and end-to-end metric it prints the median, the first and
third quartile (Python's statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, and that spread as a share of the metric's bound in
BENCHMARK.json. A spread over a third of its bound is marked `wide`, one over
the bound `OVER` (setup_s is only reported). It also prints each workload's
share of failed operations, which must be the same in every run. --out saves
every run's JSON result for later comparison.
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
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    saved = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        saved[workload] = results
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: failed share {shares}"
              f"{'' if len(shares) == 1 else '  DIFFERS'}; "
              f"all correct: {all(r['correct'] for r in results)}")
        for metric in metrics:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            line = (f"  {name:<28} median={median:<12.6g} q1={q1:<12.6g} "
                    f"q3={q3:<12.6g} spread={spread:.4f}")
            bound = metric.get("bound")
            if bound:
                share = spread / bound
                mark = ""
                if name != "setup_s":
                    mark = "  OVER" if share > 1 else "  wide" if share > 1 / 3 else ""
                line += f" bound={bound} spread/bound={share:.2f}{mark}"
            print(line, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(saved, f, indent=1)


if __name__ == "__main__":
    main()
