#!/usr/bin/env bash
# Wall-clock performance track: build optimized and run the lookup
# throughput, bulk-construction, maintenance, and proximity-churn suites,
# writing BENCH_lookups.json, BENCH_build.json, BENCH_maintenance.json, and
# BENCH_proximity.json next to the repo root.
#
#   scripts/perf.sh                                    # full run (n up to 2^17)
#   CYCLOID_BENCH_PERF_MAX_NODES=2048 scripts/perf.sh  # quick smoke
#   CYCLOID_BENCH_PERF_CHURN_SECONDS=120 ...           # maintenance smoke
#   CYCLOID_BENCH_PNS_CHURN_SECONDS=120 ...            # proximity smoke
#
# These variables are rows of the bench settings table: any bench binary's
# --help lists all 13 with defaults and ranges. A misspelt CYCLOID_BENCH_*
# name makes the binaries exit 2, and so fails this script; a value out of
# range (PERF_MAX_NODES below 2048, say) falls back to the default with a
# note on stderr.
#
# Every emitted document is validated with `python3 -m json.tool` before
# the script reports success, so a malformed cell can never reach the CI
# artifacts unnoticed.
#
# Extra arguments are passed to all four bench binaries. The JSON mirrors
# the printed tables (bench::Report --json): lookups/sec per overlay for the
# throughput suite, eager vs bulk build times (1 and N stabilize threads)
# for the construction suite, for the maintenance suite updates/sec
# with the per-cause split under the Fig. 12 churn workload plus the
# full-vs-incremental stabilization comparison (speedup and the fraction of
# per-drain scans the dirty queue skipped as clean), and — for the
# proximity suite — suffix vs proximity neighbour selection under the same
# churn workload (mean hops and end-to-end route latency, both
# stabilization modes).
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir="build-perf"

# Route compiles through ccache when it is installed (the CI jobs restore a
# warm cache); a machine without it builds exactly as before.
launcher=()
if command -v ccache > /dev/null; then
  launcher=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
            -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release "${launcher[@]}"
cmake --build "$build_dir" -j "$(nproc)" \
  --target perf_lookup_throughput --target perf_build \
  --target perf_maintenance --target ext_proximity_churn

"$build_dir/bench/perf_lookup_throughput" --json BENCH_lookups.json "$@"
python3 -m json.tool BENCH_lookups.json > /dev/null
echo "wrote BENCH_lookups.json (valid JSON)"

# Regression gate: per-overlay single-thread throughput against the
# committed baseline, at W = 1 and, for n >= 2^14, at interleave width
# W = 8, each overlay's change divided by the median overlay's change so
# the check is machine-independent. An overlay falling >20% behind the
# median change fails the run.
# Refresh the baseline after an intentional perf change with
#   scripts/perf_compare.py BENCH_lookups.json --update
python3 scripts/perf_compare.py BENCH_lookups.json

"$build_dir/bench/perf_build" --json BENCH_build.json "$@"
python3 -m json.tool BENCH_build.json > /dev/null
echo "wrote BENCH_build.json (valid JSON)"

"$build_dir/bench/perf_maintenance" --json BENCH_maintenance.json "$@"
python3 -m json.tool BENCH_maintenance.json > /dev/null
echo "wrote BENCH_maintenance.json (valid JSON)"

"$build_dir/bench/ext_proximity_churn" --json BENCH_proximity.json "$@"
python3 -m json.tool BENCH_proximity.json > /dev/null
echo "wrote BENCH_proximity.json (valid JSON)"
