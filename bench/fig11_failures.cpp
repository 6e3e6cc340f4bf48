// Fig. 11 + Table 4 — massive simultaneous node departures: a 2048-node
// network, each node departing with probability p in {0.1..0.5}, then 10,000
// lookups without stabilization. Reports the mean path length (Fig. 11),
// the timeout distribution (Table 4), and the lookup failures the paper
// reports for Koorde.
#include <iostream>

#include "bench_common.hpp"
#include "exp/experiments.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cycloid;
  bench::Report report(argc, argv, "fig11_failures",
                       "Fig. 11 + Table 4: lookups after massive "
                       "simultaneous departures");
  if (report.done()) return report.exit_code();

  const std::uint64_t lookups = bench::setting(bench::Knob::kFailureLookups);
  const std::vector<double> probabilities = {0.1, 0.2, 0.3, 0.4, 0.5};
  const auto rows = exp::run_failure_experiment(
      exp::all_overlays(), 8, probabilities, lookups, bench::kBenchSeed,
      bench::threads());

  {
    util::Table table({"p", "Cycloid-7", "Cycloid-11", "Viceroy", "Chord",
                       "Koorde"});
    for (std::size_t pi = 0; pi < probabilities.size(); ++pi) {
      table.row().add(probabilities[pi], 1);
      for (const exp::OverlayKind kind : exp::all_overlays()) {
        for (const auto& row : rows) {
          if (row.kind == kind &&
              row.departure_probability == probabilities[pi]) {
            table.add(row.mean_path, 2);
          }
        }
      }
    }
    report.section(
        "Fig. 11: path lengths with simultaneous departures "
        "(2048-node network, no stabilization)",
        table);
  }

  {
    util::Table table({"p", "Cycloid-7", "Cycloid-11", "Viceroy", "Chord",
                       "Koorde"});
    for (std::size_t pi = 0; pi < probabilities.size(); ++pi) {
      table.row().add(probabilities[pi], 1);
      for (const exp::OverlayKind kind : exp::all_overlays()) {
        for (const auto& row : rows) {
          if (row.kind == kind &&
              row.departure_probability == probabilities[pi]) {
            table.add_mean_p1_p99(row.mean_timeouts, row.timeouts_p1,
                                  row.timeouts_p99, 2);
          }
        }
      }
    }
    report.section("Table 4: timeouts per lookup, mean (1st, 99th pct)",
                   table);
  }

  {
    util::Table table({"p", "Cycloid-7", "Cycloid-11", "Viceroy", "Chord",
                       "Koorde"});
    for (std::size_t pi = 0; pi < probabilities.size(); ++pi) {
      table.row().add(probabilities[pi], 1);
      for (const exp::OverlayKind kind : exp::all_overlays()) {
        for (const auto& row : rows) {
          if (row.kind == kind &&
              row.departure_probability == probabilities[pi]) {
            table.add(row.failures);
          }
        }
      }
    }
    report.section(
        "Lookup failures (of " + std::to_string(lookups) + " lookups)",
        table);
  }

  report.note("\n(paper shape: Cycloid/Chord timeouts grow with p, zero\n"
              " failures; Viceroy zero timeouts and path *decreasing* in p;\n"
              " Koorde few timeouts but failures appearing at p >= 0.3)\n");
  return 0;
}
