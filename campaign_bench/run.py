#!/usr/bin/env python3
"""Build the campaign benchmark from source, prepare its model, run it.

Usage (from the root of a source checkout):

    python3 campaign_bench/run.py --workload baseline-1w --seed 5 \
        --seconds 20 --trace 0

The last line of standard output is the JSON result. Build output and
progress go to standard error. The build tree, the trained model and
nothing else live under .bench_build/ in the checkout (or under
$CARGO_TARGET_DIR when it is set).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("baseline-1w", "snowplow-sync-1w", "snowplow-async-2x2")


def fail(message):
    print(f"campaign_bench: {message}", file=sys.stderr)
    sys.exit(2)


def check(cmd):
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    if result.returncode != 0:
        fail(f"command failed ({result.returncode}): {' '.join(cmd)}")


def build():
    """Configure once, then (re)build the benchmark binary."""
    for need in ("src/CMakeLists.txt", "bench/common.cc"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"{need} not found: run from a snowplow source checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "campaign_bench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        check(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    check(["cmake", "--build", out, "--target", "campaign_bench", "-j", jobs])
    return os.path.join(out, "campaign_bench"), os.path.join(out, "model")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget", type=int, default=0,
                        help="executions per campaign (0 = the workload's)")
    args = parser.parse_args()

    binary, model_dir = build()
    # Training happens here, once per checkout, never inside a timed run.
    check([binary, "prepare-model", "--model-dir", model_dir])
    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--model-dir", model_dir]
    if args.budget:
        cmd += ["--budget", str(args.budget)]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
