#!/usr/bin/env python3
"""Build the click-stream benchmark from source and run one workload.

    python3 clickbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the `clickbench` package (and
the computation-tree worker next to it) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the benchmark with
the given arguments. Worker sockets and traces go under the same directory.
The benchmark's exit code is passed through; a failed build exits 3.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Build the benchmark; return the path of its executable, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    manifest = os.path.join(HERE, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        return None
    return os.path.join(target_dir(), "release", "clickbench")


def commit():
    """The commit being measured, when the checkout knows it."""
    if os.environ.get("CLICKBENCH_COMMIT"):
        return os.environ["CLICKBENCH_COMMIT"]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            cwd=HERE,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main(argv):
    exe = build()
    if exe is None:
        print("clickbench: build failed", file=sys.stderr)
        return 3
    # Worker sockets live in a private directory under the build dir. A
    # relative path keeps unix socket names short wherever the checkout is.
    tmp = os.path.join(target_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    if os.path.isabs(tmp):
        tmp = os.path.relpath(tmp)
    env = dict(os.environ, TMPDIR=tmp)
    args = list(argv)
    if "--trace-file" not in args:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "none"
        seed = args[args.index("--seed") + 1] if "--seed" in args else "0"
        trace = os.path.join(target_dir(), "traces", f"{workload}-{seed}.jsonl")
        args += ["--trace-file", trace]
    if "--commit" not in args:
        args += ["--commit", commit()]
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
