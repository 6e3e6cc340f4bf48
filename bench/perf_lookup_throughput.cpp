// Wall-clock lookup throughput — the repo's perf trajectory seed.
//
// Unlike the fig* binaries (which report simulated metrics and are byte-
// stable run to run), this bench times real elapsed seconds: lookups/sec
// for every overlay at n in {2^11, 2^14, 2^17} participants, single-threaded
// and at the configured worker count. The simulated metrics (mean path
// length) are printed alongside so a throughput regression can be told apart
// from a routing change.
//
// The lookup hot path is allocation-free after warm-up (DESIGN.md §8): each
// shard of exp::run_lookup_batch reuses one dht::BatchScratch, so these
// numbers measure routing, not the allocator.
//
// The interleave setting applies to the main table's runs; the sweep table
// times W in {1, 2, 4, 8} regardless.
//
// Typical use: scripts/perf.sh, which writes BENCH_lookups.json via --json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "exp/overlays.hpp"
#include "exp/workloads.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cycloid;
  bench::Report report(
      argc, argv, "perf_lookup_throughput",
      "Wall-clock lookups/sec for every overlay at n in {2^11, 2^14, 2^17}");
  if (report.done()) return report.exit_code();

  const std::uint64_t lookups = bench::setting(bench::Knob::kPerfLookups);
  const int threads = bench::threads();

  for (const auto [n, dim] : bench::perf_sizes()) {
    util::Table table({"overlay", "nodes", "lookups", "build s", "1-thread s",
                       "1-thread lookups/s",
                       std::to_string(threads) + "-thread lookups/s",
                       "mean path", "ns/hop", "hops/s"});
    // Interleave-width sweep (single-thread): the same lookup batch with
    // W lookups kept in flight per shard through the batch router's
    // prefetching lanes (DESIGN.md §14). Results are bit-identical at
    // every W; only wall-clock changes.
    util::Table sweep({"overlay", "nodes", "W", "time s", "lookups/s",
                       "ns/hop", "speedup vs W=1"});
    for (const exp::OverlayKind kind : exp::extended_overlays()) {
      const auto build_start = std::chrono::steady_clock::now();
      const auto net = exp::make_sparse_overlay(
          kind, dim, static_cast<std::size_t>(n), bench::kBenchSeed);
      const double build_s = bench::seconds_since(build_start);

      // Warm-up: fault in node state and size the per-shard scratch
      // buffers (untimed).
      exp::run_lookup_batch(*net, std::min<std::uint64_t>(lookups, 4096),
                            bench::kBenchSeed + 1, threads);

      const auto seq_start = std::chrono::steady_clock::now();
      const exp::WorkloadStats seq = exp::run_lookup_batch(
          *net, lookups, bench::kBenchSeed + 2, /*threads=*/1);
      const double seq_s = bench::seconds_since(seq_start);

      const auto par_start = std::chrono::steady_clock::now();
      exp::run_lookup_batch(*net, lookups, bench::kBenchSeed + 2, threads);
      const double par_s = bench::seconds_since(par_start);

      // Hot-path cost per hop decision (1-thread run): routing time
      // divided by total message forwardings. The slot-dense storage
      // plane's effect shows up here directly — hop count is topology,
      // ns/hop is implementation.
      const double total_hops =
          seq.mean_path() * static_cast<double>(lookups);
      table.row()
          .add(exp::overlay_label(kind))
          .add(n)
          .add(lookups)
          .add(build_s, 3)
          .add(seq_s, 3)
          .add(static_cast<double>(lookups) / seq_s, 0)
          .add(static_cast<double>(lookups) / par_s, 0)
          .add(seq.mean_path(), 2)
          .add(total_hops > 0.0 ? seq_s * 1e9 / total_hops : 0.0, 1)
          .add(total_hops / seq_s, 0);

      // The W = 1 row reuses the sequential timing above (it IS the W = 1
      // configuration); wider rows re-time the identical workload.
      sweep.row()
          .add(exp::overlay_label(kind))
          .add(n)
          .add(1)
          .add(seq_s, 3)
          .add(static_cast<double>(lookups) / seq_s, 0)
          .add(total_hops > 0.0 ? seq_s * 1e9 / total_hops : 0.0, 1)
          .add(1.0, 2);
      for (const int w : {2, 4, 8}) {
        const auto w_start = std::chrono::steady_clock::now();
        exp::run_lookup_batch(*net, lookups, bench::kBenchSeed + 2,
                              /*threads=*/1, /*check_owner=*/true, w);
        const double w_s = bench::seconds_since(w_start);
        sweep.row()
            .add(exp::overlay_label(kind))
            .add(n)
            .add(w)
            .add(w_s, 3)
            .add(static_cast<double>(lookups) / w_s, 0)
            .add(total_hops > 0.0 ? w_s * 1e9 / total_hops : 0.0, 1)
            .add(seq_s / w_s, 2);
      }
    }
    report.section("Lookup throughput, n = " + std::to_string(n) +
                       " (d = " + std::to_string(dim) + ")",
                   table);
    report.section("Interleave sweep (1 thread), n = " + std::to_string(n) +
                       " (d = " + std::to_string(dim) + ")",
                   sweep);
  }

  report.note("\n(wall-clock numbers; not byte-stable run to run. Simulated\n"
              " metrics — mean path — stay seed-determined and comparable\n"
              " to the fig* binaries.)\n");
  return 0;
}
