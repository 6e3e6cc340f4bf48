// Wall-clock network-construction time — the bulk-build perf track.
//
// With the lookup hot path allocation-free (DESIGN.md §8), construction
// dominates bench wall time, so this binary times three build paths for
// every overlay at n in {2^11, 2^14, 2^17} participants:
//
//   eager    the pre-bulk incremental path: one protocol join() per node
//            (each join eagerly computes the newcomer's tables and repairs
//            its neighbourhood) followed by a 1-thread stabilize_all — the
//            cost shape of the old build_random loops.
//   bulk 1T  today's builders: insert under bulk mode (per-insert table
//            work deferred), then one single-threaded stabilize pass.
//   bulk NT  same, with the stabilize pass fanned out over the configured
//            worker count (util::parallel_for over frozen membership).
//
// The two bulk runs draw the same n identifiers from the builder's RNG and
// end in byte-identical state (DESIGN.md §9). The eager run has the same
// size and identifier space but different members, since join(seed)
// derives identifiers by hashing, so this bench times builds and is not an
// oracle driver; tests/dht_bulk_build_test.cpp checks §9's guarantee for
// one insertion sequence. For Viceroy and CAN the eager and bulk paths do
// the same kind of work (no per-insert state is discarded), so their
// speedup hovers around 1x by design.
//
// Typical use: scripts/perf.sh, which writes BENCH_build.json via --json.
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exp/overlays.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cycloid;
  bench::Report report(
      argc, argv, "perf_build",
      "Wall-clock network-construction time: eager joins vs bulk build at 1 "
      "and N threads, for every overlay at n in {2^11, 2^14, 2^17}");
  if (report.done()) return report.exit_code();

  const int threads = bench::threads();

  for (const auto [n, dim] : bench::perf_sizes()) {
    util::Table table({"overlay", "nodes", "eager s", "bulk 1T s",
                       "bulk " + std::to_string(threads) + "T s",
                       "speedup (eager / bulk NT)"});
    for (const exp::OverlayKind kind : exp::extended_overlays()) {
      // Eager baseline: grow a 2-node seed network by protocol joins (the
      // incremental path the pre-bulk builders used), then stabilize once.
      const auto eager_start = std::chrono::steady_clock::now();
      {
        const auto net = exp::make_sparse_overlay(kind, dim, 2,
                                                  bench::kBenchSeed);
        std::uint64_t join_seed = bench::kBenchSeed + 1;
        while (net->node_count() < n) net->join(join_seed++);
        net->stabilize_all(1);
      }
      const double eager_s = bench::seconds_since(eager_start);

      const auto bulk1_start = std::chrono::steady_clock::now();
      {
        const auto net = exp::make_sparse_overlay(
            kind, dim, static_cast<std::size_t>(n), bench::kBenchSeed,
            /*threads=*/1);
      }
      const double bulk1_s = bench::seconds_since(bulk1_start);

      const auto bulkn_start = std::chrono::steady_clock::now();
      {
        const auto net = exp::make_sparse_overlay(
            kind, dim, static_cast<std::size_t>(n), bench::kBenchSeed,
            threads);
      }
      const double bulkn_s = bench::seconds_since(bulkn_start);

      table.row()
          .add(exp::overlay_label(kind))
          .add(n)
          .add(eager_s, 3)
          .add(bulk1_s, 3)
          .add(bulkn_s, 3)
          .add(bulkn_s > 0.0 ? eager_s / bulkn_s : 0.0, 2);
    }
    report.section("Build time, n = " + std::to_string(n) +
                       " (d = " + std::to_string(dim) + ")",
                   table);
  }

  report.note("\n(wall-clock numbers; not byte-stable run to run. The bulk\n"
              " runs end in byte-identical state; the eager run has the same\n"
              " size and identifier space but different members, because\n"
              " join(seed) derives identifiers by hashing. Same-sequence\n"
              " identity is checked by tests/dht_bulk_build_test.cpp.)\n");
  return 0;
}
