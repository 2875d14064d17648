#!/usr/bin/env python3
"""Self-test of the campaign benchmark's output contract.

Runs every workload of BENCHMARK.json with a tiny budget, untraced and
traced, and checks that each run exits 0 and that its last output line
is the result object: the keys correct/attempted/failed/metrics, a
correct run, and exactly the metrics BENCHMARK.json names for that mode,
each with its unit.

    python3 campaign_bench/selftest.py        # from the checkout root
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUDGET = 2500  # four checkpoints per campaign


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "5", "--seconds", "0",
           "--trace", str(trace), "--budget", str(BUDGET)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True:
        errors.append("run reported correct=false")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append(f"attempted = {result['attempted']}")
    if not isinstance(result["failed"], int) or result["failed"] != 0:
        errors.append(f"failed = {result['failed']}")
    expected = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    if set(got) != set(want):
        errors.append(f"metrics differ: missing "
                      f"{sorted(set(want) - set(got))}, extra "
                      f"{sorted(set(got) - set(want))}")
    for name, unit in want.items():
        metric = got.get(name, {})
        if metric.get("unit") != unit:
            errors.append(f"{name}: unit {metric.get('unit')!r} != {unit!r}")
        if not isinstance(metric.get("value"), (int, float)):
            errors.append(f"{name}: value {metric.get('value')!r}")
    if not trace:
        for name, metric in got.items():
            if metric["value"] == 0:
                errors.append(f"{name}: end-to-end metric is 0")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors = check_run(spec, workload, trace)
            status = "ok" if not errors else "FAIL"
            print(f"{status:4} {workload} --trace {trace}")
            for error in errors:
                print(f"     {error}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
