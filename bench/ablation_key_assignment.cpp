// Ablation — key-assignment policy vs load balance across occupancy levels.
// Cycloid assigns a key to its *numerically closest* node in a
// two-dimensional (cyclic, cubical) space; the ring DHTs assign it to the
// key's *successor*. The paper's Fig. 9 argument is that the closest-node
// rule splits every gap between neighbours in half (and the cyclic index
// splits it further), so key load spreads better as the network thins out.
// This sweep quantifies that across occupancy 25%..100% of a 2048-position
// space, reporting the 99th-percentile-to-mean ratio (1.0 = perfect).
#include <iostream>

#include "bench_common.hpp"
#include "exp/overlays.hpp"
#include "exp/workloads.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cycloid;
  bench::Report report(argc, argv, "ablation_key_assignment",
                       "Ablation: key-assignment policy vs load balance");
  if (report.done()) return report.exit_code();

  const std::uint64_t keys = 100000;

  util::Table table({"occupancy", "nodes",
                     "Cycloid (closest, 2-D)", "Pastry (closest, 1-D)",
                     "Chord (successor)", "Koorde (successor)"});

  const std::vector<exp::OverlayKind> kinds = {
      exp::OverlayKind::kCycloid7, exp::OverlayKind::kPastry,
      exp::OverlayKind::kChord, exp::OverlayKind::kKoorde};

  for (const double occupancy : {1.0, 0.75, 0.5, 0.25}) {
    const auto count = static_cast<std::size_t>(2048 * occupancy);
    table.row()
        .add(util::format_double(100.0 * occupancy, 0) + "%")
        .add(count);
    for (const exp::OverlayKind kind : kinds) {
      auto net = exp::make_sparse_overlay(kind, 8, count,
                                          bench::kBenchSeed + 77);
      const stats::Summary per_node = exp::key_distribution(*net, keys);
      table.add(per_node.p99() / per_node.mean(), 2);
    }
  }
  report.section(
      "Ablation: key-assignment policy vs occupancy (p99/mean keys per "
      "node, " + std::to_string(keys) + " keys, 2048-position space)",
      table);
  report.note("\n(expected shape: successor policies degrade as occupancy\n"
              " falls — a node inherits its dead neighbours' whole ranges —\n"
              " while closest-node policies split each gap in half. The 2-D\n"
              " split helps Cycloid at moderate occupancy; at very low\n"
              " occupancy its local cycles fragment and the plain 1-D\n"
              " closest rule catches up.)\n");
  return 0;
}
