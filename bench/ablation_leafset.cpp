// Ablation — leaf-set width. The paper compares 7-entry and 11-entry
// Cycloid; this sweep extends the trade-off curve (state per node vs lookup
// hops vs failure resilience) to wider leaf sets.
#include <iostream>

#include "bench_common.hpp"
#include "core/network.hpp"
#include "exp/workloads.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cycloid;
  bench::Report report(argc, argv, "ablation_leafset",
                       "Ablation: Cycloid leaf-set width trade-off");
  if (report.done()) return report.exit_code();

  const int d = 8;
  const std::uint64_t lookups = 20000;

  util::Table table({"variant", "entries/node", "mean path",
                     "mean path @ p=0.3 departed", "timeouts @ p=0.3"});
  for (const int width : {1, 2, 3, 4}) {
    const int entries = 3 + 4 * width;

    auto net = ccc::CycloidNetwork::build_complete(d, width);
    util::Rng rng(bench::kBenchSeed + static_cast<std::uint64_t>(width));
    const auto stable = exp::run_random_lookups(*net, lookups, rng);

    auto failing = ccc::CycloidNetwork::build_complete(d, width);
    util::Rng fail_rng(bench::kBenchSeed + 77);
    failing->fail_simultaneously(0.3, fail_rng);
    const auto failed = exp::run_random_lookups(*failing, lookups, fail_rng);

    table.row()
        .add("Cycloid-" + std::to_string(entries))
        .add(entries)
        .add(stable.mean_path(), 2)
        .add(failed.mean_path(), 2)
        .add(failed.mean_timeouts(), 2);
  }
  report.section(
      "Ablation: Cycloid leaf-set width (complete d=8 network, 2048 nodes)",
      table);
  report.note("\n(the 7 -> 11 entry step buys most of the hop reduction;\n"
              " wider sets mainly harden the network against departures)\n");
  return 0;
}
