#!/usr/bin/env python3
"""Summarise and compare saved campaign-benchmark runs.

A log is the concatenated standard output of one or more runs of
campaign_bench/run.py: each run contributes a `context {...}` line and
its JSON result line.

    python3 campaign_bench/stats.py spread LOG...
        Per workload and metric: median, quartiles and the quartile
        spread as a share of the median, against the metric's bound.

    python3 campaign_bench/stats.py compare BASE_LOG HEAD_LOG
        Per workload and end-to-end metric: both medians and the change
        in the metric's "better" direction. Refuses (exit 3) when the
        two logs were measured with different model checkpoints, since
        their campaigns are then not the same experiment.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    """[(context, result)] in file order."""
    runs, context = [], None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("context "):
                context = json.loads(line[len("context "):])
            elif line.startswith("{") and context is not None:
                runs.append((context, json.loads(line)))
                context = None
    return runs


def load_spec():
    """Metric name -> BENCHMARK.json entry (empty when absent)."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def group(runs):
    """(workload, metric) -> [values], over correct runs only."""
    out = {}
    for context, result in runs:
        if not result["correct"]:
            print(f"skipping incorrect run: {context}", file=sys.stderr)
            continue
        for name, metric in result["metrics"].items():
            out.setdefault((context["workload"], name), []).append(
                metric["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(paths):
    spec = load_spec()
    runs = [r for p in paths for r in load_runs(p)]
    print(f"{'workload':20} {'metric':34} {'n':>3} {'median':>14} "
          f"{'spread':>8} {'bound':>6}")
    for (workload, name), values in sorted(group(runs).items()):
        q1, med, q3 = quartiles(values)
        share = (q3 - q1) / med if med else 0.0
        bound = spec.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            flag = "  > bound/3" if share > bound / 3 else ""
        print(f"{workload:20} {name:34} {len(values):3} {med:14.4f} "
              f"{share:8.4f} {bound if bound is not None else '-':>6}{flag}")


def compare(base_path, head_path):
    base, head = load_runs(base_path), load_runs(head_path)
    hashes = {c["model_hash"] for c, _ in base + head}
    if len(hashes) != 1:
        print(f"refusing to compare: runs use different model checkpoints "
              f"{sorted(hashes)}", file=sys.stderr)
        return 3
    spec = load_spec()
    base_v, head_v = group(base), group(head)
    print(f"{'workload':20} {'metric':16} {'base':>14} {'head':>14} "
          f"{'change':>8}  verdict")
    for key in sorted(base_v):
        workload, name = key
        entry = spec.get(name)
        if key not in head_v or entry is None or "bound" not in entry:
            continue
        bq1, bmed, bq3 = quartiles(base_v[key])
        hmed = statistics.median(head_v[key])
        sign = 1.0 if entry["better"] == "higher" else -1.0
        change = sign * (hmed - bmed) / bmed if bmed else 0.0
        if (bq3 - bq1) / bmed > entry["bound"]:
            verdict = "unresolved (base spread exceeds bound)"
        elif change < -entry["bound"]:
            verdict = "REGRESSION"
        else:
            verdict = "ok"
        print(f"{workload:20} {name:16} {bmed:14.4f} {hmed:14.4f} "
              f"{change:+8.2%}  {verdict}")
    return 0


def main(argv):
    if len(argv) >= 2 and argv[0] == "spread":
        spread(argv[1:])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
