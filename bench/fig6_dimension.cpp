// Fig. 6 — mean lookup path length as a function of the network *dimension*.
// Cycloid packs d * 2^d nodes into dimension d while the ring DHTs pack
// 2^bits, so at equal dimension Cycloid serves (d-1) * 2^d more nodes; the
// figure shows its path length growing far more slowly per dimension.
#include <iostream>

#include "bench_common.hpp"
#include "chord/chord.hpp"
#include "core/network.hpp"
#include "exp/workloads.hpp"
#include "koorde/koorde.hpp"
#include "util/table.hpp"
#include "viceroy/viceroy.hpp"

int main(int argc, char** argv) {
  using namespace cycloid;
  bench::Report report(argc, argv, "fig6_dimension",
                       "Fig. 6: path length as a function of network "
                       "dimension");
  if (report.done()) return report.exit_code();

  util::Table table({"dimension", "Cycloid-7 (n=d*2^d)", "Viceroy (n=2^d)",
                     "Chord (n=2^d)", "Koorde (n=2^d)"});

  const int threads = bench::threads();
  for (const int d : {3, 4, 5, 6, 7, 8}) {
    table.row().add(d);
    {
      auto net = ccc::CycloidNetwork::build_complete(d);
      const std::uint64_t n = net->node_count();
      const auto lookups = static_cast<std::uint64_t>(
          static_cast<double>(n * n) / 4.0 * bench::lookup_scale_for(n));
      const auto stats = exp::run_lookup_batch(
          *net, lookups, bench::kBenchSeed + static_cast<std::uint64_t>(d),
          threads);
      table.add(stats.mean_path(), 2);
    }
    const std::uint64_t n = 1ULL << d;
    const auto lookups = static_cast<std::uint64_t>(
        static_cast<double>(n * n) / 4.0 * bench::lookup_scale_for(n));
    {
      util::Rng rng(bench::kBenchSeed + 100 + static_cast<std::uint64_t>(d));
      auto net = viceroy::ViceroyNetwork::build_random(n, rng);
      const auto stats = exp::run_lookup_batch(
          *net, lookups,
          bench::kBenchSeed + 100 + static_cast<std::uint64_t>(d), threads);
      table.add(stats.mean_path(), 2);
    }
    {
      auto net = chord::ChordNetwork::build_complete(d);
      const auto stats = exp::run_lookup_batch(
          *net, lookups,
          bench::kBenchSeed + 200 + static_cast<std::uint64_t>(d), threads);
      table.add(stats.mean_path(), 2);
    }
    {
      auto net = koorde::KoordeNetwork::build_complete(d);
      const auto stats = exp::run_lookup_batch(
          *net, lookups,
          bench::kBenchSeed + 300 + static_cast<std::uint64_t>(d), threads);
      table.add(stats.mean_path(), 2);
    }
  }
  report.section("Fig. 6: path length as a function of network dimension",
                 table);
  report.note("\n(paper shape: at equal dimension Cycloid carries (d+1)x\n"
              " more nodes than Viceroy/Koorde yet its path grows slowest;\n"
              " Viceroy's grows fastest with dimension)\n");
  return 0;
}
