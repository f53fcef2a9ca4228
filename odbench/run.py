#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 odbench/run.py --workload <train_paper|train_city|serve_fleet> \
        --seed <n> --seconds <s> --trace <0|1>

The binary is built offline in release mode into $CARGO_TARGET_DIR
(default: .bench_build at the checkout root). Cargo's output goes to
stderr; the last stdout line is the benchmark's one-line JSON result.
Run artifacts (provenance, time series, spans) go to odbench/out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Builds the release binary and returns its path (exits on failure)."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        print("odbench: build failed", file=sys.stderr)
        sys.exit(result.returncode or 1)
    return os.path.join(target, "release", "odbench")


def main():
    binary = build()
    args = [binary] + sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(HERE, "out")]
    result = subprocess.run(args, cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
