#!/usr/bin/env bash
# The behavioural oracle: fixed-seed text + JSON output of the paper's
# fig5/fig6/fig7/fig10/fig11/fig12/fig13 drivers, and of the three
# extension drivers that also build Pastry and CAN (related DHTs,
# maintenance cost, ungraceful failures), at interleave widths 1 and 8,
# plus the stdout of two examples: overlay_compare (the one caller of
# exp::query_load_distribution) and `simulate --overlay all --churn 0.2
# --duration 600`, as simulate.churn (the churn driver on all seven
# overlays, Pastry and CAN included, which fig12 and ext_proximity_churn
# leave out). fig10 pins how many queries each node received, the output
# most sensitive to a changed hop. Five more runs set one knob each, into
# <name>.w<width>.*:
#   - ext_maintenance_cost and fig12 with dirty tracking on
#     (CYCLOID_BENCH_MAINT_INCREMENTAL / CYCLOID_BENCH_CHURN_INCREMENTAL),
#     as <driver>.incremental: their drains refresh exactly the nodes the
#     overlays' dirty() hooks queued, so these outputs pin the hooks;
#   - fig5 with CYCLOID_BENCH_TRACE_ROUTES=16, as fig5_path_length.traced:
#     16 routes per paper overlay from the router's per-hop trace, each hop
#     with its link label, and each route's timeouts and trace-priced
#     latency;
#   - ext_proximity_selection (CYCLOID_BENCH_PNS_LOOKUPS=2000) and
#     ext_proximity_churn (CYCLOID_BENCH_PNS_CHURN_SECONDS=120): route
#     latencies priced from the traces on the shared latency plane.
# Last, benchmark/ is built as its own CMake project and each of its four
# workloads runs once as a smoke run (`cycloid_bench --workload <w> --seed 1
# --smoke --seconds 0 --trace 0`); its "digest", "attempted" and "failed"
# lines land in bench.<w>.txt. The digest hashes every simulated total,
# maintenance after a mass departure included, which no figure driver
# prints. A run that exits non-zero fails the oracle.
#
#   scripts/oracle.sh              # write the outputs of the working tree
#   scripts/oracle.sh <base-ref>   # ... and diff them against <base-ref>
#
# Workloads are capped so a run takes minutes (override through the same
# environment variables; `--help` on any bench binary lists the 13 it
# reads). Both sides run with the same knobs, so a knob must keep its
# name: the head's binaries exit 2 on a CYCLOID_BENCH_* name their settings
# table lacks, and older binaries ignore it. Outputs land in
# build-oracle/head; with a base ref, the ref is exported with
# `git archive`, built and run the same way into build-oracle/base, and
# every file is diffed. Exit status 1 when any
# output differs — between the two widths, or between head and base — or
# when a benchmark run fails.
set -euo pipefail

cd "$(dirname "$0")/.."

export CYCLOID_BENCH_LOOKUP_CAP="${CYCLOID_BENCH_LOOKUP_CAP:-2000}"
export CYCLOID_BENCH_FAILURE_LOOKUPS="${CYCLOID_BENCH_FAILURE_LOOKUPS:-2000}"
export CYCLOID_BENCH_CHURN_SECONDS="${CYCLOID_BENCH_CHURN_SECONDS:-600}"
figures=(fig5_path_length fig6_dimension fig7_breakdown fig10_query_load
         fig11_failures fig12_churn fig13_sparsity
         ext_related_dhts ext_maintenance_cost ext_ungraceful_failures)
# <name>=<driver>:<knob>=<value>: the driver runs with the knob set, into
# <name>.w<width>.*.
variants=(
  ext_maintenance_cost.incremental=ext_maintenance_cost:CYCLOID_BENCH_MAINT_INCREMENTAL=1
  fig12_churn.incremental=fig12_churn:CYCLOID_BENCH_CHURN_INCREMENTAL=1
  fig5_path_length.traced=fig5_path_length:CYCLOID_BENCH_TRACE_ROUTES=16
  ext_proximity_selection=ext_proximity_selection:CYCLOID_BENCH_PNS_LOOKUPS=2000
  ext_proximity_churn=ext_proximity_churn:CYCLOID_BENCH_PNS_CHURN_SECONDS=120
)
# <name>=<example> [<arg>...]: the example runs with those arguments, its
# stdout into <name>.txt.
examples=(
  overlay_compare=overlay_compare
  "simulate.churn=simulate --overlay all --churn 0.2 --duration 600"
)
workloads=(lookup-2e14 lookup-2e17 churn-2e11 failure-2e14)
work="$PWD/build-oracle"

launcher=()
if command -v ccache > /dev/null; then
  launcher=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
            -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

# oracle <source dir> <name>: build the drivers and run each at W=1
# and W=8 into $work/<name>, the variant runs likewise, then each
# example once, then the benchmark's smoke runs; fails when the two widths
# disagree or a benchmark run fails.
oracle() {
  local build="$work/build-$2" out="$work/$2" status=0 targets=()
  for entry in "${variants[@]}"; do
    entry="${entry#*=}"
    targets+=("${entry%%:*}")
  done
  for entry in "${examples[@]}"; do
    entry="${entry#*=}"
    targets+=("${entry%% *}")
  done
  cmake -B "$build" -S "$1" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    "${launcher[@]}" > /dev/null
  cmake --build "$build" -j "$(nproc)" \
    --target "${figures[@]}" "${targets[@]}" > /dev/null
  rm -rf "$out"
  mkdir -p "$out"
  for fig in "${figures[@]}"; do
    for width in 1 8; do
      CYCLOID_BENCH_INTERLEAVE="$width" "$build/bench/$fig" \
        --json "$out/$fig.w$width.json" > "$out/$fig.w$width.txt"
    done
    for ext in txt json; do
      cmp "$out/$fig.w1.$ext" "$out/$fig.w8.$ext" || status=1
    done
  done
  for entry in "${variants[@]}"; do
    local name="${entry%%=*}" run="${entry#*=}"
    local fig="${run%%:*}" knob="${run#*:}"
    for width in 1 8; do
      env "$knob" CYCLOID_BENCH_INTERLEAVE="$width" "$build/bench/$fig" \
        --json "$out/$name.w$width.json" > "$out/$name.w$width.txt"
    done
    for ext in txt json; do
      cmp "$out/$name.w1.$ext" "$out/$name.w8.$ext" || status=1
    done
  done
  for entry in "${examples[@]}"; do
    local run
    read -ra run <<< "${entry#*=}"
    "$build/examples/${run[0]}" "${run[@]:1}" > "$out/${entry%%=*}.txt"
  done
  # Release, as benchmark/run.py builds it; the log keeps the compiler's
  # output out of the report.
  local bench_build="$work/build-$2-benchmark" result
  { cmake -B "$bench_build" -S "$1/benchmark" -DCMAKE_BUILD_TYPE=Release \
      "${launcher[@]}" &&
    cmake --build "$bench_build" -j "$(nproc)" --target cycloid_bench
  } > "$bench_build.log" 2>&1 || {
    echo "oracle: $2 benchmark build failed, see $bench_build.log" >&2
    status=1
  }
  for workload in "${workloads[@]}"; do
    if ! result=$("$bench_build/cycloid_bench" --workload "$workload" \
                    --seed 1 --smoke --seconds 0 --trace 0); then
      echo "oracle: $2 cycloid_bench --workload $workload failed" >&2
      status=1
    fi
    grep -E '^"(digest|attempted|failed)":' <<< "$result" \
      > "$out/bench.$workload.txt" || status=1
  done
  echo "oracle: $2 outputs in $out"
  return "$status"
}

status=0
oracle "$PWD" head || status=1

if [[ $# -ge 1 ]]; then
  source_dir="$work/src-base"
  rm -rf "$source_dir"
  mkdir -p "$source_dir"
  git archive "$1" | tar -x -C "$source_dir"
  oracle "$source_dir" base || status=1
  diff -r "$work/base" "$work/head" || status=1
fi

if [[ $status -eq 0 ]]; then
  echo "oracle: identical"
else
  echo "oracle: outputs differ" >&2
fi
exit "$status"
