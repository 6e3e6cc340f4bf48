#!/usr/bin/env python3
"""Compare two result sets written by run.py --out.

Usage:
  python3 benchmark/compare.py A.json B.json [--spec BENCHMARK.json]

A is the parent (the baseline), B the change. For every workload and metric
the two sides' medians and quartiles are printed. End-to-end metrics get a
verdict from the bounds in BENCHMARK.json:
  regressed   B's median is worse than A's by more than the bound
  unresolved  A's own spread (q3 - q1) / median exceeds the bound, and not
              every run of B reads better than every run of A
  better      B's median is better than A's by more than the bound
  ok          otherwise
Per-layer metrics have no bound and are printed for information. When both
sets ran the same seed, the digest of the simulated totals must match.

Exit status: 0 when nothing regressed and the digests agree, 1 otherwise,
2 on unreadable input.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return data["seed"], data["runs"]
    except (OSError, KeyError, json.JSONDecodeError) as err:
        print(f"compare.py: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def group(runs):
    """{(workload, traced): [run, ...]}"""
    out = {}
    for run in runs:
        key = (run["workload"], bool(run["record"]["trace"]))
        out.setdefault(key, []).append(run)
    return out


def stats(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    """Verdict of B against A for one end-to-end metric."""
    a1, a2, a3 = stats(a)
    _, b2, _ = stats(b)
    higher = better == "higher"
    gain = (b2 - a2) / abs(a2) if a2 else 0.0
    if not higher:
        gain = -gain
    if gain < -bound:
        return "regressed"
    every_run_better = min(b) > max(a) if higher else max(b) < min(a)
    if a2 and (a3 - a1) / abs(a2) > bound and not every_run_better:
        return "unresolved"
    return "better" if gain > bound else "ok"


def main():
    parser = argparse.ArgumentParser(
        description="Compare two benchmark result sets.")
    parser.add_argument("a", help="baseline result set (run.py --out)")
    parser.add_argument("b", help="changed result set (run.py --out)")
    parser.add_argument("--spec", default=os.path.join(ROOT,
                                                       "BENCHMARK.json"),
                        help="metric bounds (default: %(default)s)")
    args = parser.parse_args()

    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    seed_a, runs_a = load(args.a)
    seed_b, runs_b = load(args.b)
    groups_a, groups_b = group(runs_a), group(runs_b)

    failures = 0
    print(f"{'workload':<13} {'metric':<32} {'A median':>12} {'A q1':>11} "
          f"{'A q3':>11} {'B median':>12} {'B q1':>11} {'B q3':>11} "
          f"{'change':>8}  verdict")
    for key in sorted(set(groups_a) & set(groups_b)):
        workload, _ = key
        ra, rb = groups_a[key], groups_b[key]
        for name in ra[0]["metrics"]:
            a = [r["metrics"][name]["value"] for r in ra
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in rb
                 if name in r["metrics"]]
            if not a or not b:
                continue
            a1, a2, a3 = stats(a)
            b1, b2, b3 = stats(b)
            change = (b2 - a2) / abs(a2) * 100.0 if a2 else 0.0
            spec_metric = metrics.get(name, {})
            if "bound" in spec_metric:
                result = verdict(a, b, spec_metric["better"],
                                 spec_metric["bound"])
                failures += result == "regressed"
            else:
                result = "info"
            print(f"{workload:<13} {name:<32} {a2:>12.5g} {a1:>11.5g} "
                  f"{a3:>11.5g} {b2:>12.5g} {b1:>11.5g} {b3:>11.5g} "
                  f"{change:>+7.2f}%  {result}")
        if seed_a == seed_b:
            digests = {r["digest"] for r in ra + rb}
            same = len(digests) == 1
            failures += not same
            print(f"{workload:<13} digest of simulated totals: "
                  f"{'match' if same else 'DIFFER'} ({', '.join(digests)})")
    if seed_a != seed_b:
        print(f"seeds differ ({seed_a} vs {seed_b}): digests not compared")
    only = sorted(set(groups_a) ^ set(groups_b))
    for workload, traced in only:
        print(f"{workload} ({'traced' if traced else 'untraced'}) is in one "
              "set only")
    print("FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
