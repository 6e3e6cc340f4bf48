// Wall-clock maintenance throughput — the mutation-plane companion of
// perf_lookup_throughput.
//
// Runs the Fig. 12 churn workload (2048-node start, Poisson lookups at 1/s,
// per-node stabilization every 30 s) at aggressive membership rates
// R in {0.5, 1.0, 2.0} joins/s = leaves/s and times the whole simulation:
// maintenance updates/sec is how fast DhtNetwork's mutation plane pushes
// repair work through each overlay's maintenance hooks. The per-cause split
// (join repair / leave repair / stabilization refresh / lookup-learned
// promotion) is printed alongside so a throughput regression can be told
// apart from a charge-attribution change — the simulated columns stay
// seed-determined.
//
// Every cell then re-runs under StabilizeMode::kIncremental (identical RNG
// stream, so the same joins/leaves/lookups): the second table pairs the two
// modes' updates/sec, the wall-clock speedup, and the fraction of per-drain
// scans the dirty queue skipped as already clean.
//
// Typical use: scripts/perf.sh, which writes BENCH_maintenance.json via
// --json.
#include <chrono>
#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "dht/maintenance.hpp"
#include "exp/experiments.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cycloid;
  bench::Report report(
      argc, argv, "perf_maintenance",
      "Wall-clock maintenance updates/sec under the Fig. 12 churn workload");
  if (report.done()) return report.exit_code();

  const std::uint64_t seconds = bench::setting(bench::Knob::kPerfChurnSeconds);
  const auto duration = static_cast<double>(seconds);
  const std::vector<double> rates = {0.5, 1.0, 2.0};

  util::Table table({"overlay", "R", "virtual s", "wall s", "updates",
                     "updates/s", "join repair", "leave repair",
                     "stabilize refresh", "lookup promotion", "final size"});
  util::Table compare({"overlay", "R", "full updates/s", "incr updates/s",
                       "full wall s", "incr wall s", "speedup",
                       "refreshed dirty", "skipped clean", "skip fraction"});
  for (const exp::OverlayKind kind : exp::extended_overlays()) {
    for (const double rate : rates) {
      const auto full_start = std::chrono::steady_clock::now();
      const exp::ChurnRow full = exp::run_churn_experiment(
          kind, 8, rate, duration, 30.0, bench::kBenchSeed,
          exp::StabilizeMode::kFull);
      const double full_wall_s = bench::seconds_since(full_start);

      const auto incr_start = std::chrono::steady_clock::now();
      const exp::ChurnRow incr = exp::run_churn_experiment(
          kind, 8, rate, duration, 30.0, bench::kBenchSeed,
          exp::StabilizeMode::kIncremental);
      const double incr_wall_s = bench::seconds_since(incr_start);

      const auto cause = [&](dht::MaintenanceCause c) {
        return full.maintenance_by_cause[static_cast<std::size_t>(c)];
      };
      table.row()
          .add(exp::overlay_label(kind))
          .add(rate, 1)
          .add(seconds)
          .add(full_wall_s, 3)
          .add(full.maintenance_total)
          .add(static_cast<double>(full.maintenance_total) / full_wall_s, 0)
          .add(cause(dht::MaintenanceCause::kJoinRepair))
          .add(cause(dht::MaintenanceCause::kLeaveRepair))
          .add(cause(dht::MaintenanceCause::kStabilizeRefresh))
          .add(cause(dht::MaintenanceCause::kLookupPromotion))
          .add(static_cast<std::uint64_t>(full.final_size));

      const double scanned = static_cast<double>(incr.nodes_refreshed_dirty +
                                                 incr.nodes_skipped_clean);
      compare.row()
          .add(exp::overlay_label(kind))
          .add(rate, 1)
          .add(static_cast<double>(full.maintenance_total) / full_wall_s, 0)
          .add(static_cast<double>(incr.maintenance_total) / incr_wall_s, 0)
          .add(full_wall_s, 3)
          .add(incr_wall_s, 3)
          .add(full_wall_s / incr_wall_s, 2)
          .add(incr.nodes_refreshed_dirty)
          .add(incr.nodes_skipped_clean)
          .add(scanned == 0.0
                   ? 0.0
                   : static_cast<double>(incr.nodes_skipped_clean) / scanned,
               3);
    }
  }
  report.section("Maintenance throughput under churn (2048-node start, " +
                     std::to_string(seconds) + " virtual seconds per cell)",
                 table);
  report.section(
      "Full vs incremental stabilization (same workload, same RNG stream)",
      compare);
  report.note("\n(wall s and updates/s are wall-clock; not byte-stable run to\n"
              " run. The update counts and per-cause split are simulated and\n"
              " seed-determined — identical run to run, comparable across\n"
              " machines. Viceroy and CAN repair eagerly inside the join and\n"
              " leave paths, so their stabilize-refresh column is 0; Viceroy's\n"
              " accounting is enabled by the churn driver. In the comparison\n"
              " table 'skipped clean' counts nodes a full pass would have\n"
              " refreshed for nothing — the skip fraction is the work the\n"
              " dirty queue avoids.)\n");
  return 0;
}
