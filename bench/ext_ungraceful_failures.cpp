// Extension — ungraceful departures (the paper's Sec. 5 future work):
// "A common problem with constant-degree DHTs is their weakness in handling
// node leaving without warning in advance."
//
// 2048-node networks; each node *vanishes* with probability p, repairing
// nothing; lookups run against the stale state, then again after one
// stabilization pass. Graceful-mode leaf sets kept every Cycloid lookup
// resolvable (Fig. 11); here even leaf sets are stale, so lookups can fail —
// and the 11-entry variant's wider leaf sets measurably blunt the damage.
#include <iostream>

#include "bench_common.hpp"
#include "exp/experiments.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cycloid;
  bench::Report report(argc, argv, "ext_ungraceful_failures",
                       "Extension: lookups after ungraceful departures");
  if (report.done()) return report.exit_code();

  const std::uint64_t lookups = bench::setting(bench::Knob::kFailureLookups);
  const std::vector<double> probabilities = {0.1, 0.2, 0.3, 0.4, 0.5};
  // Viceroy and CAN repair incoming links as part of any membership change
  // in this simulation, so they have no stale state to expose here.
  const std::vector<exp::OverlayKind> kinds = {
      exp::OverlayKind::kCycloid7, exp::OverlayKind::kCycloid11,
      exp::OverlayKind::kChord, exp::OverlayKind::kKoorde,
      exp::OverlayKind::kPastry};

  const auto rows = exp::run_ungraceful_experiment(
      kinds, 8, probabilities, lookups, bench::kBenchSeed, bench::threads());

  {
    util::Table table({"p", "Cycloid-7", "Cycloid-11", "Chord", "Koorde",
                       "Pastry"});
    for (const double p : probabilities) {
      table.row().add(p, 1);
      for (const exp::OverlayKind kind : kinds) {
        for (const auto& row : rows) {
          if (row.kind == kind && row.departure_probability == p) {
            table.add(row.failures_before_repair);
          }
        }
      }
    }
    report.section("Extension: ungraceful departures, failed lookups of " +
                       std::to_string(lookups) + " (before stabilization)",
                   table);
  }

  {
    util::Table table({"p", "Cycloid-7", "Cycloid-11", "Chord", "Koorde",
                       "Pastry"});
    for (const double p : probabilities) {
      table.row().add(p, 1);
      for (const exp::OverlayKind kind : kinds) {
        for (const auto& row : rows) {
          if (row.kind == kind && row.departure_probability == p) {
            table.add(row.mean_timeouts, 2);
          }
        }
      }
    }
    report.section("Mean timeouts per lookup (stale state)", table);
  }

  {
    util::Table table({"p", "Cycloid-7", "Cycloid-11", "Chord", "Koorde",
                       "Pastry"});
    for (const double p : probabilities) {
      table.row().add(p, 1);
      for (const exp::OverlayKind kind : kinds) {
        for (const auto& row : rows) {
          if (row.kind == kind && row.departure_probability == p) {
            table.add(row.failures_after_repair);
          }
        }
      }
    }
    report.section("Failed lookups after one stabilization pass", table);
  }

  report.note("\n(expected shape: without warning, every DHT loses lookups\n"
              " at high p; wider leaf sets (Cycloid-11) and successor lists\n"
              " reduce the damage; stabilization restores full service)\n");
  return 0;
}
