// Extension — suffix vs proximity neighbour selection under continuous
// churn.
//
// ext_proximity_selection measures the proximity policy on static complete
// networks; this bench asks whether the latency advantage survives the
// paper's churn workload (Sec. 4.4: 2048-node start, Poisson lookups at
// 1/s, joins and leaves each at rate R, stabilization every 30 s). Both
// selections run the identical join/leave/lookup RNG stream per cell, so
// each row compares the same workload; lookups are priced end to end on
// the shared latency plane from their recorded per-hop latencies
// (trace-is-truth — hops that depart mid-run price correctly).
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exp/experiments.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cycloid;
  bench::Report report(
      argc, argv, "ext_proximity_churn",
      "Extension: suffix vs proximity neighbour selection under churn");
  if (report.done()) return report.exit_code();

  const std::uint64_t seconds = bench::setting(bench::Knob::kPnsChurnSeconds);
  const auto duration = static_cast<double>(seconds);
  const std::vector<double> rates = {0.05, 0.10, 0.15, 0.20,
                                     0.25, 0.30, 0.35, 0.40};
  const std::vector<exp::StabilizeMode> modes = {
      exp::StabilizeMode::kFull, exp::StabilizeMode::kIncremental};
  const std::vector<dht::NeighborSelection> selections = {
      dht::NeighborSelection::kClosestSuffix,
      dht::NeighborSelection::kProximity};

  // Every (mode, selection, rate) cell is an independent simulation; slot
  // order is fixed so the output never depends on the thread count.
  std::vector<exp::ChurnRow> rows(modes.size() * selections.size() *
                                  rates.size());
  util::parallel_for(rows.size(), bench::threads(), [&](std::size_t i) {
    const std::size_t ri = i % rates.size();
    const std::size_t si = (i / rates.size()) % selections.size();
    const std::size_t mi = i / (rates.size() * selections.size());
    rows[i] = exp::run_churn_experiment(exp::OverlayKind::kCycloid7, 8,
                                        rates[ri], duration, bench::kBenchSeed,
                                        modes[mi], selections[si]);
  });
  const auto row_at = [&](std::size_t mi, std::size_t si,
                          std::size_t ri) -> const exp::ChurnRow& {
    return rows[(mi * selections.size() + si) * rates.size() + ri];
  };

  for (std::size_t mi = 0; mi < modes.size(); ++mi) {
    util::Table table({"R", "suffix hops", "proximity hops", "suffix latency",
                       "proximity latency", "latency ratio", "suffix p99",
                       "proximity p99"});
    for (std::size_t ri = 0; ri < rates.size(); ++ri) {
      const exp::ChurnRow& s = row_at(mi, 0, ri);
      const exp::ChurnRow& p = row_at(mi, 1, ri);
      table.row()
          .add(rates[ri], 2)
          .add(s.mean_path, 2)
          .add(p.mean_path, 2)
          .add(s.mean_route_latency, 3)
          .add(p.mean_route_latency, 3)
          .add(s.mean_route_latency == 0.0
                   ? 0.0
                   : p.mean_route_latency / s.mean_route_latency,
               3)
          .add(s.route_latency_p99, 3)
          .add(p.route_latency_p99, 3);
    }
    report.section(
        std::string("Cycloid-7 (d = 8) under churn, ") +
            (modes[mi] == exp::StabilizeMode::kFull
                 ? "full stabilization"
                 : "incremental stabilization") +
            " every 30 s, " + std::to_string(seconds) +
            " virtual seconds per cell (latency = torus distance)",
        table);
  }

  std::uint64_t failures = 0;
  for (const auto& row : rows) failures += row.failures;
  report.note("\nTotal lookup failures across all cells: " +
              std::to_string(failures) + "\n");
  report.note("(expected shape: mean hops match to within noise — any\n"
              " cubical candidate extends the prefix equally — while the\n"
              " proximity policy prices strictly lower end to end, in both\n"
              " stabilization modes)\n");
  return 0;
}
