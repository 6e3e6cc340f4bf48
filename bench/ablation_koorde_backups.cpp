// Ablation — Koorde's de Bruijn backup count. The paper's setup gives each
// Koorde node three predecessors of its de Bruijn node as backups; a lookup
// fails when the pointer and every backup are dead (Sec. 4.3). This sweep
// shows how the failure rate at p = 0.3/0.5 depends on that choice — and
// why "keeping more information … helps to resolve the problem, but
// destroys the optimality of constant degree" (paper Sec. 5).
#include <iostream>

#include "bench_common.hpp"
#include "exp/workloads.hpp"
#include "koorde/koorde.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cycloid;
  bench::Report report(argc, argv, "ablation_koorde_backups",
                       "Ablation: Koorde de Bruijn backup count");
  if (report.done()) return report.exit_code();

  const int bits = 11;  // 2048-id ring
  const std::uint64_t lookups = 10000;

  util::Table table({"backups", "entries/node", "failures @ p=0.3",
                     "failures @ p=0.5", "mean timeouts @ p=0.5"});

  for (const int backups : {0, 1, 3, 7}) {
    std::uint64_t failures_03 = 0;
    std::uint64_t failures_05 = 0;
    double timeouts_05 = 0.0;
    for (const double p : {0.3, 0.5}) {
      auto net = std::make_unique<koorde::KoordeNetwork>(bits, 3, backups);
      for (std::uint64_t id = 0; id < (1ULL << bits); ++id) net->insert(id);
      net->stabilize_all();
      util::Rng rng(bench::kBenchSeed + static_cast<std::uint64_t>(backups));
      net->fail_simultaneously(p, rng);
      const exp::WorkloadStats stats =
          exp::run_random_lookups(*net, lookups, rng);
      if (p == 0.3) failures_03 = stats.failures + stats.incorrect;
      if (p == 0.5) {
        failures_05 = stats.failures + stats.incorrect;
        timeouts_05 = stats.mean_timeouts();
      }
    }
    table.row()
        .add(backups)
        .add(4 + backups)  // 1 de Bruijn + 3 successors + backups
        .add(failures_03)
        .add(failures_05)
        .add(timeouts_05, 2);
  }
  report.section(
      "Ablation: Koorde de Bruijn backups vs lookup failures "
      "(2048-node ring, graceful mass departure)",
      table);
  report.note("\n(failure probability per de Bruijn hop ~ p^(backups+1):\n"
              " each extra backup buys roughly a p-fold reduction, at the\n"
              " price of one more routing entry per node)\n");
  return 0;
}
