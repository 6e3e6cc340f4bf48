// simulate — the general-purpose command-line driver: run any overlay at
// any size through any of the paper's workloads without writing code.
//
//   simulate --overlay cycloid7 --nodes 2048 --lookups 10000
//   simulate --overlay all --dim 6 --complete --lookups 5000
//   simulate --overlay koorde --nodes 1024 --fail 0.5
//   simulate --overlay cycloid7 --nodes 1500 --fail-ungraceful 0.3 --stabilize
//   simulate --overlay viceroy --churn 0.2 --duration 1000
#include <algorithm>
#include <cctype>
#include <iostream>
#include <memory>

#include "exp/experiments.hpp"
#include "exp/overlays.hpp"
#include "exp/workloads.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace cycloid;

std::vector<exp::OverlayKind> parse_overlays(const std::string& name) {
  if (name == "all") return exp::extended_overlays();
  for (const exp::OverlayKind kind : exp::extended_overlays()) {
    std::string label = exp::overlay_label(kind);
    for (char& c : label) c = static_cast<char>(std::tolower(c));
    label.erase(std::remove(label.begin(), label.end(), '-'), label.end());
    if (label == name) return {kind};
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("simulate",
                       "run a DHT overlay through the paper's workloads");
  args.add_option("overlay", "cycloid7",
                  "cycloid7|cycloid11|viceroy|chord|koorde|pastry|can|all");
  args.add_option("nodes", "1024", "number of participants (sparse network)");
  args.add_option("dim", "8", "Cycloid dimension / identifier-space size");
  args.add_flag("complete", "populate the whole identifier space (d * 2^d)");
  args.add_option("lookups", "10000", "random lookups to run");
  args.add_option("fail", "0", "graceful mass-departure probability");
  args.add_option("fail-ungraceful", "0",
                  "unannounced mass-departure probability");
  args.add_flag("stabilize", "run a stabilization pass before measuring");
  args.add_option("churn", "0", "Poisson join+leave rate (runs churn mode)");
  args.add_option("duration", "1000", "churn mode: virtual seconds");
  args.add_option("seed", "42", "RNG seed");

  if (!args.parse(argc, argv)) {
    if (args.help_requested()) {
      std::cout << args.help_text();
      return 0;
    }
    std::cerr << "error: " << args.error() << "\n\n" << args.help_text();
    return 1;
  }

  const auto kinds = parse_overlays(args.get("overlay"));
  if (kinds.empty()) {
    std::cerr << "error: unknown overlay '" << args.get("overlay") << "'\n";
    return 1;
  }
  const int dim = static_cast<int>(args.get_int("dim"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const auto lookups = static_cast<std::uint64_t>(args.get_int("lookups"));

  // Churn mode delegates to the Fig. 12 driver.
  if (args.get_double("churn") > 0.0) {
    util::Table table({"overlay", "lookups", "mean path", "mean timeouts",
                       "failures", "final size"});
    for (const exp::OverlayKind kind : kinds) {
      const exp::ChurnRow row = exp::run_churn_experiment(
          kind, dim, args.get_double("churn"), args.get_double("duration"),
          seed);
      table.row()
          .add(exp::overlay_label(kind))
          .add(row.lookups)
          .add(row.mean_path, 2)
          .add(row.mean_timeouts, 3)
          .add(row.failures)
          .add(row.final_size);
    }
    std::cout << table;
    return 0;
  }

  util::Table table({"overlay", "nodes", "lookups", "mean path",
                     "mean timeouts", "failures", "unresolved/wrong"});
  for (const exp::OverlayKind kind : kinds) {
    auto net = args.get_flag("complete")
                   ? exp::make_dense_overlay(kind, dim, seed)
                   : exp::make_sparse_overlay(
                         kind, dim,
                         static_cast<std::size_t>(args.get_int("nodes")),
                         seed);
    util::Rng rng(seed + 1);
    if (args.get_double("fail") > 0.0) {
      net->fail_simultaneously(args.get_double("fail"), rng);
    }
    if (args.get_double("fail-ungraceful") > 0.0) {
      net->fail_ungraceful(args.get_double("fail-ungraceful"), rng);
    }
    if (args.get_flag("stabilize")) net->stabilize_all();

    const exp::WorkloadStats stats = exp::run_random_lookups(*net, lookups, rng);
    table.row()
        .add(exp::overlay_label(kind))
        .add(net->node_count())
        .add(stats.lookups)
        .add(stats.mean_path(), 2)
        .add(stats.mean_timeouts(), 3)
        .add(stats.failures)
        .add(stats.incorrect);
  }
  std::cout << table;
  return 0;
}
