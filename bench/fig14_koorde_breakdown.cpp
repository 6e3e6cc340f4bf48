// Fig. 14 — breakdown of Koorde's lookup cost (de Bruijn hops vs successor
// hops) as the identifier space empties; the successor share grows with
// sparsity because the real predecessor of each imaginary node drifts.
#include <iostream>

#include "bench_common.hpp"
#include "exp/experiments.hpp"
#include "koorde/koorde.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cycloid;
  bench::Report report(argc, argv, "fig14_koorde_breakdown",
                       "Fig. 14: Koorde path breakdown vs network sparsity");
  if (report.done()) return report.exit_code();

  const std::uint64_t lookups = 10000;
  const std::vector<double> sparsities = {0.0,   0.125, 0.25, 0.375,
                                          0.5,   0.625, 0.75};
  const auto rows = exp::run_sparsity_experiment(
      {exp::OverlayKind::kKoorde}, 8, sparsities, lookups,
      bench::kBenchSeed + 14);

  util::Table table({"sparsity", "nodes", "mean path", "de Bruijn %",
                     "successor %"});
  for (const auto& row : rows) {
    table.row()
        .add(row.sparsity, 3)
        .add(row.nodes)
        .add(row.mean_path, 2)
        .add(100.0 * row.phase_fractions[koorde::KoordeNetwork::kDeBruijn], 1)
        .add(100.0 * row.phase_fractions[koorde::KoordeNetwork::kSuccessor],
             1);
  }
  report.section("Fig. 14: Koorde path breakdown vs network sparsity", table);
  report.note("\n(paper shape: the successor share rises monotonically with\n"
              " sparsity while the de Bruijn share falls)\n");
  return 0;
}
