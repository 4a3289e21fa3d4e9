#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

    python3 clickbench/spread.py --workload scan --seeds 1-10 --seconds 10 [--trace 0]
                                 [--out results.jsonl]

For every metric it prints the median of the runs and the distance between
the first and third quartile (`statistics.quantiles(values, n=4)`) as a
share of that median: the run-to-run spread that the bounds in
BENCHMARK.json are checked against. Run it from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    opts = parser.parse_args()

    results = []
    for seed in seeds(opts.seeds):
        started = time.time()
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", opts.workload,
               "--seed", str(seed), "--seconds", opts.seconds, "--trace", opts.trace]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            sys.exit(f"seed {seed}: exit {done.returncode}")
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["wall_s"] = round(time.time() - started, 1)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={result['wall_s']}s", flush=True)
        if opts.out:
            with open(opts.out, "a") as out:
                out.write(json.dumps(result) + "\n")

    names = list(results[0]["metrics"])
    print(f"\n{'metric':<28} {'median':>14} {'spread':>8}  unit")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        unit = results[0]["metrics"][name]["unit"]
        print(f"{name:<28} {median:>14.4f} {spread:>8.3f}  {unit}")


if __name__ == "__main__":
    main()
