#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-size smoke run of every workload.

Usage (from the root of a checkout):

    python3 odbench/selftest.py

Builds the benchmark offline, then runs every workload in BENCHMARK.json
at tiny sizes, untraced and traced. Each run executes every correctness
check of the full-size run. The test asserts that each run exits 0 with
zero failed operations, and that the printed result has exactly the keys
`correct`, `attempted`, `failed` and `metrics`. It also asserts that the
metric names and units are exactly those of BENCHMARK.json, and that a
traced run's artifact holds spans and self times. Takes well under a
minute once built.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import run  # noqa: E402  (the build step is shared with the benchmark command)


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    binary = run.build()
    out = os.path.join(HERE, "out", "selftest")
    shutil.rmtree(out, ignore_errors=True)
    started = time.time()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", trace, "--size", "tiny", "--out", out]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            if p.returncode != 0:
                fail(f"{label} exited {p.returncode}: {p.stderr.strip()[-2000:]}")
            lines = p.stdout.strip().splitlines()
            if not lines:
                fail(f"{label} printed nothing")
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                fail(f"{label}: correct={result['correct']} failed={result['failed']}")
            if not isinstance(result["attempted"], int) or result["attempted"] < 1:
                fail(f"{label}: attempted={result['attempted']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                fail(f"{label}: metrics {sorted(got.items())} != BENCHMARK.json "
                     f"{sorted(expected[trace].items())}")
            for name, m in result["metrics"].items():
                v = m["value"]
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    fail(f"{label}: {name} = {v!r}")
            if trace == "1":
                path = os.path.join(out, f"{workload}-seed7-trace.json")
                with open(path) as f:
                    artifact = json.load(f)
                if not artifact["spans"] or not artifact["self_time"]:
                    fail(f"{label}: artifact has no spans or self times")
            print(f"selftest: ok  {label}  attempted={result['attempted']}")
    bad = subprocess.run([binary, "--workload", "nope", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
    if bad.returncode == 0 or bad.stdout.strip():
        fail("an unknown workload must exit non-zero without a result")
    shutil.rmtree(out, ignore_errors=True)
    print(f"selftest: passed in {time.time() - started:.1f} s")


if __name__ == "__main__":
    main()
