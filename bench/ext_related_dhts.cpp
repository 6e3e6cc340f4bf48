// Extension — the related-work DHTs of paper Sec. 2 / Table 1 measured on
// the same workload as Fig. 5: Pastry (hypercube class, prefix routing) and
// CAN (mesh class, greedy coordinate routing) alongside the paper's five
// evaluation systems, demonstrating the complexity classes Table 1 claims:
// O(log n) for Pastry, O(d n^(1/d)) for 2-d CAN, O(d) for Cycloid.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "exp/experiments.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cycloid;
  bench::Report report(argc, argv, "ext_related_dhts",
                       "Extension: path lengths including Pastry and CAN");
  if (report.done()) return report.exit_code();

  util::Table table({"n", "Cycloid-7", "Chord", "Pastry", "CAN (2-d)",
                     "sqrt(n)/2 (CAN model)"});

  const std::vector<exp::OverlayKind> kinds = {
      exp::OverlayKind::kCycloid7, exp::OverlayKind::kChord,
      exp::OverlayKind::kPastry, exp::OverlayKind::kCan};
  for (const int d : {4, 5, 6, 7, 8}) {
    const std::uint64_t n = static_cast<std::uint64_t>(d) << d;
    const auto rows = exp::run_dense_path_lengths(
        kinds, {d}, bench::lookup_scale_for(n), bench::kBenchSeed + 31,
        bench::threads());
    table.row().add(n);
    for (const auto& row : rows) table.add(row.mean_path, 2);
    table.add(std::sqrt(static_cast<double>(n)) / 2.0, 2);
  }
  report.section(
      "Extension: path lengths including Pastry and CAN "
      "(complete networks, n = d * 2^d)",
      table);
  report.note("\n(Table 1 shape: Pastry tracks Chord's O(log n); CAN grows\n"
              " as O(n^(1/2)) for two dimensions and overtakes every\n"
              " logarithmic system as n grows; Cycloid stays O(d))\n");
  return 0;
}
