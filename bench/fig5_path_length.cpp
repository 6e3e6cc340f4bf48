// Fig. 5 — mean lookup path length vs network size in complete networks
// n = d * 2^d, d = 3..8, for all five systems.
#include <iostream>

#include "bench_common.hpp"
#include "exp/experiments.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cycloid;
  bench::Report report(argc, argv, "fig5_path_length",
                       "Fig. 5: path length of lookup requests vs network "
                       "size");
  if (report.done()) return report.exit_code();

  util::Table table(
      {"n", "d", "Cycloid-7", "Cycloid-11", "Viceroy", "Chord", "Koorde"});

  for (const int d : {3, 4, 5, 6, 7, 8}) {
    const std::uint64_t n = static_cast<std::uint64_t>(d) << d;
    const double scale = bench::lookup_scale_for(n);
    const auto rows = exp::run_dense_path_lengths(
        exp::all_overlays(), {d}, scale, bench::kBenchSeed, bench::threads());
    table.row().add(n).add(d);
    for (const auto& row : rows) table.add(row.mean_path, 2);
    for (const auto& row : rows) {
      if (row.incorrect != 0) {
        std::cerr << "WARNING: " << exp::overlay_label(row.kind) << " d=" << d
                  << " had " << row.incorrect << " unresolved lookups\n";
      }
    }
  }
  report.section("Fig. 5: path length of lookup requests vs network size",
                 table);
  report.note("\n(paper shape: Viceroy > 2x Cycloid at every size; Cycloid\n"
              " is the shortest constant-degree DHT; lookups = min(n^2/4, " +
              std::to_string(bench::setting(bench::Knob::kLookupCap)) +
              ") per cell)\n");
  // Engine-level per-hop traces (bench::Knob::kTraceRoutes).
  report.route_traces(exp::all_overlays(), 5);
  return 0;
}
