// Fig. 12 + Table 5 — lookups during continuous churn: a network starting at
// 2048 nodes, Poisson lookups at 1/s, Poisson joins and leaves each at rate
// R in {0.05..0.40}, per-node stabilization every 30 s with uniformly
// distributed phases (paper Sec. 4.4).
#include <iostream>

#include "bench_common.hpp"
#include "dht/maintenance.hpp"
#include "exp/experiments.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cycloid;
  bench::Report report(argc, argv, "fig12_churn",
                       "Fig. 12 + Table 5: lookups during continuous churn");
  if (report.done()) return report.exit_code();

  const std::uint64_t seconds = bench::setting(bench::Knob::kChurnSeconds);
  const auto duration = static_cast<double>(seconds);
  // Both modes consume the same RNG stream, so the workload is identical.
  const exp::StabilizeMode mode =
      bench::setting(bench::Knob::kChurnIncremental) != 0
          ? exp::StabilizeMode::kIncremental
          : exp::StabilizeMode::kFull;
  const std::vector<double> rates = {0.05, 0.10, 0.15, 0.20,
                                     0.25, 0.30, 0.35, 0.40};
  const std::vector<exp::OverlayKind> kinds = exp::all_overlays();

  // Every (overlay, rate) cell is an independent simulation with its own
  // seed, so the cells run in parallel; output order is fixed by the slot
  // (cell i = kinds[i / rates.size()] at rates[i % rates.size()]).
  std::vector<exp::ChurnRow> rows(kinds.size() * rates.size());
  util::parallel_for(rows.size(), bench::threads(), [&](std::size_t i) {
    rows[i] = exp::run_churn_experiment(kinds[i / rates.size()], 8,
                                        rates[i % rates.size()], duration,
                                        30.0, bench::kBenchSeed, mode);
  });
  const auto row_at = [&](std::size_t kind_idx, std::size_t rate_idx)
      -> const exp::ChurnRow& {
    return rows[kind_idx * rates.size() + rate_idx];
  };

  {
    util::Table table({"R (joins/s = leaves/s)", "Cycloid-7", "Cycloid-11",
                       "Viceroy", "Chord", "Koorde"});
    for (std::size_t ri = 0; ri < rates.size(); ++ri) {
      table.row().add(rates[ri], 2);
      for (std::size_t ki = 0; ki < kinds.size(); ++ki) {
        table.add(row_at(ki, ri).mean_path, 2);
      }
    }
    report.section("Fig. 12: path lengths under churn (2048-node start, "
                   "stabilization every 30 s, " +
                       std::to_string(seconds) +
                       " virtual seconds per cell)",
                   table);
  }

  {
    util::Table table({"R", "Cycloid-7", "Cycloid-11", "Viceroy", "Chord",
                       "Koorde"});
    for (std::size_t ri = 0; ri < rates.size(); ++ri) {
      table.row().add(rates[ri], 2);
      for (std::size_t ki = 0; ki < kinds.size(); ++ki) {
        const exp::ChurnRow& row = row_at(ki, ri);
        table.add_mean_p1_p99(row.mean_timeouts, row.timeouts_p1,
                              row.timeouts_p99, 3);
      }
    }
    report.section("Table 5: timeouts per lookup, mean (1st, 99th pct)",
                   table);
  }

  {
    // JSON-only: churn-driven maintenance updates per cell, split by cause
    // (DhtNetwork's per-cause counters). Text output is unchanged.
    util::Table table({"overlay", "R", "maintenance total", "join repair",
                       "leave repair", "stabilize refresh",
                       "lookup promotion", "final size"});
    for (std::size_t ki = 0; ki < kinds.size(); ++ki) {
      for (std::size_t ri = 0; ri < rates.size(); ++ri) {
        const exp::ChurnRow& row = row_at(ki, ri);
        const auto cause = [&](dht::MaintenanceCause c) {
          return row.maintenance_by_cause[static_cast<std::size_t>(c)];
        };
        table.row()
            .add(exp::overlay_label(kinds[ki]))
            .add(rates[ri], 2)
            .add(row.maintenance_total)
            .add(cause(dht::MaintenanceCause::kJoinRepair))
            .add(cause(dht::MaintenanceCause::kLeaveRepair))
            .add(cause(dht::MaintenanceCause::kStabilizeRefresh))
            .add(cause(dht::MaintenanceCause::kLookupPromotion))
            .add(static_cast<std::uint64_t>(row.final_size));
      }
    }
    report.json_section("Maintenance updates under churn, by cause", table);
  }

  if (mode == exp::StabilizeMode::kIncremental) {
    // Only emitted in incremental mode, so the default output (text AND
    // JSON) is untouched when the flag is off.
    util::Table table({"overlay", "R", "nodes refreshed dirty",
                       "nodes skipped clean", "skip fraction"});
    for (std::size_t ki = 0; ki < kinds.size(); ++ki) {
      for (std::size_t ri = 0; ri < rates.size(); ++ri) {
        const exp::ChurnRow& row = row_at(ki, ri);
        const double scanned = static_cast<double>(row.nodes_refreshed_dirty +
                                                   row.nodes_skipped_clean);
        table.row()
            .add(exp::overlay_label(kinds[ki]))
            .add(rates[ri], 2)
            .add(row.nodes_refreshed_dirty)
            .add(row.nodes_skipped_clean)
            .add(scanned == 0.0
                     ? 0.0
                     : static_cast<double>(row.nodes_skipped_clean) / scanned,
                 3);
      }
    }
    report.section("Incremental stabilization: per-drain refresh/skip counts",
                   table);
  }

  std::uint64_t failures = 0;
  for (const auto& row : rows) failures += row.failures;
  report.note("\nTotal lookup failures across all cells: " +
              std::to_string(failures) +
              " (paper: none in all test cases)\n");
  report.note("(paper shape: path lengths flat in R; stabilization removes\n"
              " the majority of timeouts; Viceroy has none)\n");
  return 0;
}
