#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <campaign_day|fleet_metro|uav_phy> \
        --seed <n> --seconds <s> --trace <0|1> [--size full|smoke]

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR (default
.bench_build) under the repository root, runs the benchmark binary, checks
that its result line carries exactly the metrics BENCHMARK.json declares for
the chosen trace mode, with the declared units, and prints the binary's
output. The last line of stdout is the result JSON object. Build output goes
to stderr. Exits non-zero, without a result line, when the sources are
missing, the build fails, the run fails or the result does not match.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign_day", "fleet_metro", "uav_phy")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no SkyRAN sources under {ROOT}; run from a full checkout")
    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_root, "perfbench-release")
    # Compiler scratch files stay inside the checkout too.
    scratch = os.path.join(build_dir, "tmp")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, TMPDIR=scratch)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)} are not correct/attempted/failed/metrics")
    declared = declared_metrics(trace)
    emitted = result["metrics"]
    if set(emitted) != set(declared):
        missing = sorted(set(declared) - set(emitted))
        extra = sorted(set(emitted) - set(declared))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    for name, m in emitted.items():
        if m.get("unit") != declared[name]:
            fail(f"metric {name} has unit {m.get('unit')!r}, BENCHMARK.json says {declared[name]!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"metric {name} has no finite value")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--size", args.size]
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"benchmark exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line of the benchmark output is not JSON")
    check_result(result, args.trace == "1")
    print(f"perfbench: run took {time.monotonic() - started:.1f} s", file=sys.stderr)
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
