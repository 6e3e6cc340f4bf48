// Fig. 10 — query-load balance: per-node received-query counts in complete
// networks of 64 (d=4) and 2048 (d=8) nodes; mean (1st, 99th percentile)
// plus the standard deviation as the congestion scalar.
#include <iostream>

#include "bench_common.hpp"
#include "exp/experiments.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cycloid;
  bench::Report report(argc, argv, "fig10_query_load",
                       "Fig. 10: query-load balance across nodes");
  if (report.done()) return report.exit_code();

  for (const int d : {4, 8}) {
    const std::uint64_t n = static_cast<std::uint64_t>(d) << d;
    const auto rows = exp::run_query_load(
        exp::all_overlays(), {d}, bench::lookup_scale_for(n),
        bench::kBenchSeed, bench::threads());
    util::Table table(
        {"overlay", "lookups", "mean", "1st pct", "99th pct", "stddev"});
    for (const auto& row : rows) {
      table.row()
          .add(exp::overlay_label(row.kind))
          .add(row.lookups)
          .add(row.mean, 2)
          .add(row.p1, 0)
          .add(row.p99, 0)
          .add(row.stddev, 2);
    }
    report.section(
        "Fig. 10: query load, network of " + std::to_string(n) + " nodes",
        table);
  }
  report.note("\n(paper shape: Cycloid shows the smallest spread of the\n"
              " constant-degree DHTs; Viceroy's low-level nodes and\n"
              " Koorde's even-ID nodes become hot spots)\n");
  return 0;
}
