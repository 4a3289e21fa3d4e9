#!/usr/bin/env python3
"""Self-test of the click-stream benchmark at a small row count.

    python3 clickbench/selftest.py

Run it from the root of a checkout. It checks that:

- every workload, traced and untraced, exits 0 and prints as its last line
  one JSON object whose metrics are exactly those BENCHMARK.json names, with
  the same units, with every answer correct;
- the same seed gives the same table, click stream and ingest batches, and
  another seed does not;
- a deliberately corrupted reference answer fails the run, so the
  correctness check is not vacuous;
- `ingest` fails, rather than skips, without the worker binary;
- the benchmark fails without printing a result in a directory that holds
  only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
ROWS = "20000"
WORKLOADS = ["scan", "ingest"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload, seed=7, trace="0", extra=(), env=None, cwd=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", trace, "--rows", ROWS, *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=cwd)
    return done.returncode, done.stdout.strip().splitlines(), done.stderr


def result_of(lines):
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check({w["name"] for w in spec["workloads"]} <= set(WORKLOADS), "BENCHMARK.json workloads")

    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, lines, err = bench(workload, trace=trace)
            result = result_of(lines)
            what = f"{workload} --trace {trace}"
            check(code == 0, f"{what}: exit 0 (got {code}) {err.strip()[-300:]}")
            check(result is not None and set(result) == RESULT_KEYS, f"{what}: result keys")
            if result is None:
                continue
            check(result["correct"] is True and result["failed"] == 0, f"{what}: all correct")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                  f"{what}: attempted")
            units = {k: v.get("unit") for k, v in result["metrics"].items()}
            check(units == declared[trace], f"{what}: metric names and units")
            check(all(isinstance(v.get("value"), (int, float))
                      for v in result["metrics"].values()), f"{what}: numeric values")

    digest = lambda seed: bench("ingest", seed=seed, extra=["--stream-digest"])[1][-1:]
    first, again, other = digest(7), digest(7), digest(8)
    check(bool(first) and first == again, "same seed: same table, click stream and batches")
    check(first != other, "another seed: other inputs")

    for workload in ("scan", "ingest"):
        code, lines, _ = bench(workload, extra=["--corrupt-reference"])
        result = result_of(lines)
        check(code != 0 and result is not None and result["correct"] is False
              and result["failed"] >= 1, f"{workload}: corrupted reference fails the run")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, PD_DIST_WORKER_BIN=os.path.abspath(os.path.join(target, "no-worker")))
    code, lines, _ = bench("ingest", env=env)
    check(code != 0 and result_of(lines) is None, "ingest: missing worker binary fails")

    bare = os.path.abspath(os.path.join(target, "selftest-bare"))
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("target", "__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    cmd = [sys.executable, os.path.join(os.path.basename(HERE), "run.py"), "--workload", "scan",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=bare, timeout=180)
    check(done.returncode != 0 and result_of(done.stdout.strip().splitlines()) is None,
          "bare directory: fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
