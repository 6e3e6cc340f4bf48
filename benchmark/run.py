#!/usr/bin/env python3
"""Build the benchmark and run its workloads; one command for every metric.

Usage (from the repository root):
  python3 benchmark/run.py --seed 1 --runs 5            # all workloads
  python3 benchmark/run.py --workload lookup-2e14 --seed 3 --seconds 10 \\
      --trace 0                                          # one run
  python3 benchmark/run.py --trace 1 --seed 1            # per-layer metrics
  python3 benchmark/run.py --smoke                       # schema + gates
  python3 benchmark/run.py --seed 1 --runs 5 --out a.json

Builds benchmark/build (CMake, Release) when needed, then runs each
workload --runs times, each run its own single-threaded process. Prints
every metric with its unit as the median and quartiles over the runs, then,
as the last line, one JSON object: correct, attempted, failed and the
median of every metric. --out writes every run's full result (run record
included) for compare.py.

Exit status: 0 when every gate passes; 3 when a correctness gate fails (the
result line is still printed); 1 when the build or a run breaks, with no
result line; 2 on bad arguments.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(BENCH_DIR, "build")
BINARY = os.path.join(BUILD_DIR, "cycloid_bench")
WORKLOADS = ["lookup-2e14", "lookup-2e17", "churn-2e11", "failure-2e14"]
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def build():
    """Configure and build the Release binary (a no-op when up to date);
    output goes to benchmark/build/build.log, its tail to stderr on
    failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "cycloid_bench",
              "-j", str(os.cpu_count() or 1)]]
    with open(log_path, "w", encoding="utf-8") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, check=False).returncode != 0:
                log.flush()
                with open(log_path, encoding="utf-8") as fh:
                    sys.stderr.write("".join(fh.readlines()[-30:]))
                fail(f"build failed: {' '.join(step)}")


def git_record():
    """Commit and dirty flag of the checkout, when it is a git work tree of
    its own; git is not run otherwise."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return {"commit": "unknown", "dirty": None}

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=False).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD") or "unknown",
                "dirty": bool(git("status", "--porcelain"))}
    except OSError:
        return {"commit": "unknown", "dirty": None}


def run_once(workload, seed, seconds, traced, smoke, index):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    if smoke:
        cmd.append("--smoke")
    if traced:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{workload}-seed{seed}-run{index}.trace.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    try:
        result = json.loads(proc.stdout)
    except json.JSONDecodeError:
        fail(f"{workload} seed {seed} exited {proc.returncode} without a "
             "result")
    if proc.returncode not in (0, 3):
        fail(f"{workload} seed {seed} exited {proc.returncode}")
    return result


def check_schema(result, expected):
    """Every expected metric present with its unit and a finite value, and
    nothing else."""
    problems = []
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        metric = metrics.get(name)
        if metric is None:
            problems.append(f"missing {name}")
        elif metric.get("unit") != unit:
            problems.append(f"{name}: unit {metric.get('unit')} != {unit}")
        elif not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    problems += [f"unexpected {name}" for name in metrics
                 if name not in expected]
    for key in ("correct", "attempted", "failed", "digest", "record",
                "gates"):
        if key not in result:
            problems.append(f"missing key {key}")
    return problems


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(
        description="Build and run the Cycloid benchmark.")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default: %(default)s)")
    parser.add_argument("--runs", type=int, default=1,
                        help="processes per workload (default: %(default)s)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"],
                        help="1: traced runs, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="n = 2^11, shortened streams, every workload "
                             "untraced and traced; checks schema and gates")
    parser.add_argument("--out", help="write every run's result here (JSON)")
    args = parser.parse_args()
    if args.runs < 1 or args.seed < 0:
        parser.error("--runs must be >= 1 and --seed >= 0")

    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = args.workload or WORKLOADS
    modes = [False, True] if args.smoke else [args.trace == "1"]
    if args.smoke:
        seconds = 0
    build()
    record = git_record()

    results = []
    problems = []
    for workload in workloads:
        for traced in modes:
            expected = {m["name"]: m["unit"] for m in
                        spec["per_layer" if traced else "end_to_end"]}
            for index in range(args.runs):
                result = run_once(workload, args.seed, seconds, traced,
                                  args.smoke, index)
                result["record"].update(record)
                results.append(result)
                problems += [f"{workload}: {p}"
                             for p in check_schema(result, expected)]
                problems += [f"{workload}: gate {gate} failed"
                             for gate, ok in result["gates"].items()
                             if ok is False]
    for workload in workloads:
        for traced in modes:
            digests = {r["digest"] for r in results
                       if r["workload"] == workload and
                       bool(r["record"]["trace"]) == traced}
            if len(digests) > 1:
                problems.append(f"{workload}: simulated digest differs "
                                f"between runs of seed {args.seed}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "runs": results}, fh, indent=1)

    print(f"# record: {json.dumps(results[0]['record'])}")
    print(f"{'workload':<14} {'metric':<34} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'unit':<9} runs")
    final = {}
    for workload in workloads:
        for traced in modes:
            runs = [r for r in results if r["workload"] == workload and
                    bool(r["record"]["trace"]) == traced]
            for name, metric in runs[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in runs
                          if name in r["metrics"]]
                q1, q2, q3 = quartiles(values)
                print(f"{workload:<14} {name:<34} {q2:>14.6g} {q1:>14.6g} "
                      f"{q3:>14.6g} {metric['unit']:<9} {len(values)}")
                key = name if len(workloads) == 1 and len(modes) == 1 \
                    else f"{workload}/{name}"
                final[key] = {"value": q2, "unit": metric["unit"]}
    for problem in problems:
        print(f"# FAIL {problem}")
    correct = not problems and all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": final,
    }))
    return 0 if correct else 3


if __name__ == "__main__":
    sys.exit(main())
