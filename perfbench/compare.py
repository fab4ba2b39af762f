"""Steadiness and comparison of benchmark result sets.

    python3 perfbench/compare.py A.jsonl            # steadiness of one set
    python3 perfbench/compare.py A.jsonl B.jsonl    # A: parent, B: change

Each file holds the records ``run.py --out FILE`` appends.  For every
(metric, workload) pair the tool prints each side's median and quartiles and
the spread: the interquartile distance as a share of the median.  A pair
whose spread exceeds the metric's bound in BENCHMARK.json is "unresolved"
unless every run of B reads better than every run of A.  Per-layer metrics
and the values ``run.py`` reports without gating (``call_p50_ms``,
``failed_frac``) have no bound and are only summarised.  The exit code is 1
when a pair regressed by more than its bound, else 0.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
from pathlib import Path

import benchstats

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load(path):
    """{(workload, metric): [values]} from a JSONL file of run records."""
    out = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                workload = rec["detail"]["workload"]
                metrics = {**rec["result"]["metrics"], **rec["detail"].get("reported", {})}
                for name, m in metrics.items():
                    out[(workload, name)].append(m["value"])
    return out


def verdict(spec, a, b):
    bound = spec.get("bound")
    if bound is None:
        return "-"
    lower = spec["better"] == "lower"
    spread_a = benchstats.spread(a)
    if b is None:
        if spread_a <= bound / 3:
            return "steady"
        return "within bound" if spread_a <= bound else "unresolved"
    better_every_run = max(b) < min(a) if lower else min(b) > max(a)
    if max(spread_a, benchstats.spread(b)) > bound:
        return "better (every run)" if better_every_run else "unresolved"
    med_a, med_b = benchstats.quartiles(a)[1], benchstats.quartiles(b)[1]
    worse = (med_b - med_a) / med_a * (1 if lower else -1)
    if worse > bound:
        return "REGRESSION"
    if -worse > spread_a:
        return "better"
    return "within bound"


def fmt(values):
    if values is None:
        return ""
    q1, med, q3 = benchstats.quartiles(values)
    return f"{med:12.5g} [{q1:.5g}, {q3:.5g}] {benchstats.spread(values):6.1%} n={len(values)}"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a")
    p.add_argument("b", nargs="?")
    args = p.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    a = load(args.a)
    b = load(args.b) if args.b else None
    order = {name: i for i, name in enumerate(specs)}
    keys = sorted(set(a) | set(b or {}), key=lambda k: (k[0], order.get(k[1], len(order))))
    regressions = 0
    print(f"{'workload':20s} {'metric':44s} {'A: median [q1, q3] spread':>40s}"
          + (f" {'B: median [q1, q3] spread':>40s}" if b else "") + "  verdict")
    for workload, metric in keys:
        va = a.get((workload, metric))
        vb = b.get((workload, metric)) if b is not None else None
        if va is None or (b is not None and vb is None):
            verdict_text = "missing on one side"
        else:
            verdict_text = verdict(specs.get(metric, {}), va, vb)
        regressions += verdict_text == "REGRESSION"
        line = f"{workload:20s} {metric:44s} {fmt(va):>40s}"
        if b is not None:
            line += f" {fmt(vb):>40s}"
        print(f"{line}  {verdict_text}")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
