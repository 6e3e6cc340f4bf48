// Fig. 13 — path length of lookup requests as the identifier space empties:
// a 2048-position space (d=8) populated at 100% down to 25%.
#include <iostream>

#include "bench_common.hpp"
#include "exp/experiments.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cycloid;
  bench::Report report(argc, argv, "fig13_sparsity",
                       "Fig. 13: path length vs degree of network sparsity");
  if (report.done()) return report.exit_code();

  const std::uint64_t lookups = 10000;
  const std::vector<double> sparsities = {0.0,   0.125, 0.25, 0.375,
                                          0.5,   0.625, 0.75};
  const auto rows = exp::run_sparsity_experiment(
      exp::all_overlays(), 8, sparsities, lookups, bench::kBenchSeed,
      bench::threads());

  util::Table table({"sparsity", "nodes", "Cycloid-7", "Cycloid-11",
                     "Viceroy", "Chord", "Koorde"});
  for (const double s : sparsities) {
    bool first = true;
    for (const exp::OverlayKind kind : exp::all_overlays()) {
      for (const auto& row : rows) {
        if (row.kind == kind && row.sparsity == s) {
          if (first) {
            table.row().add(s, 3).add(row.nodes);
            first = false;
          }
          table.add(row.mean_path, 2);
        }
      }
    }
  }
  report.section(
      "Fig. 13: path length vs degree of network sparsity "
      "(2048-position ID space)",
      table);

  std::uint64_t failures = 0;
  for (const auto& row : rows) failures += row.failures;
  report.note("\nLookup failures across all cells: " +
              std::to_string(failures) + " (paper: none)\n");
  report.note("(paper shape: Cycloid's path length slightly decreases with\n"
              " sparsity; Koorde's increases as successor walks lengthen;\n"
              " Viceroy is indifferent — its ID space is never full)\n");
  return 0;
}
