// Extension — maintenance overhead, the fifth DHT metric of paper Sec. 4
// ("degree, hop count, load balance, fault tolerance, and maintenance
// overhead") and the crux of its conclusion: Viceroy "handles massive node
// failures/departures at a high cost for connectivity maintenance".
//
// Per-node state updates (~ maintenance message exchanges) are counted for
// 200 joins and 200 leaves against an 896-node network, and for one full
// stabilization pass.
#include <iostream>

#include "bench_common.hpp"
#include "dht/maintenance.hpp"
#include "exp/overlays.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "viceroy/viceroy.hpp"

int main(int argc, char** argv) {
  using namespace cycloid;
  bench::Report report(argc, argv, "ext_maintenance_cost",
                       "Extension: maintenance overhead per membership event");
  if (report.done()) return report.exit_code();

  const int d = 8;  // 2048-position identifier space
  const std::size_t count = 1600;  // leave room for joins
  const int events = 200;
  const bool incremental = bench::setting(bench::Knob::kMaintIncremental) != 0;

  util::Table table({"overlay", "updates/join", "updates/leave",
                     "updates/stabilization pass"});
  // JSON-only companion table: the same three phases split by maintenance
  // cause (DhtNetwork's per-cause counters). Text output is unchanged.
  util::Table by_cause_table({"overlay", "phase", "total", "join repair",
                              "leave repair", "stabilize refresh",
                              "lookup promotion"});
  const auto add_by_cause = [&](const std::string& label,
                                const std::string& phase,
                                const dht::DhtNetwork& net) {
    const dht::MaintenanceBreakdown by_cause = net.maintenance_by_cause();
    const auto cause = [&](dht::MaintenanceCause c) {
      return by_cause[static_cast<std::size_t>(c)];
    };
    by_cause_table.row()
        .add(label)
        .add(phase)
        .add(net.maintenance_metrics().total())
        .add(cause(dht::MaintenanceCause::kJoinRepair))
        .add(cause(dht::MaintenanceCause::kLeaveRepair))
        .add(cause(dht::MaintenanceCause::kStabilizeRefresh))
        .add(cause(dht::MaintenanceCause::kLookupPromotion));
  };

  for (const exp::OverlayKind kind : exp::extended_overlays()) {
    if (kind == exp::OverlayKind::kCycloid11) continue;  // same machinery
    auto net = exp::make_sparse_overlay(kind, d, count, bench::kBenchSeed);
    if (auto* viceroy_net = dynamic_cast<viceroy::ViceroyNetwork*>(net.get())) {
      viceroy_net->enable_maintenance_accounting(true);
    }
    if (incremental) net->set_dirty_tracking(true);
    util::Rng rng(bench::kBenchSeed + 1);

    net->reset_maintenance();
    int joins = 0;
    std::uint64_t seed = 1;
    while (joins < events) {
      if (net->join(seed++) != dht::kNoNode) ++joins;
    }
    const double per_join =
        static_cast<double>(net->maintenance_metrics().total()) / events;
    add_by_cause(exp::overlay_label(kind), "join", *net);

    net->reset_maintenance();
    for (int i = 0; i < events; ++i) net->leave(net->random_node(rng));
    const double per_leave =
        static_cast<double>(net->maintenance_metrics().total()) / events;
    add_by_cause(exp::overlay_label(kind), "leave", *net);

    net->reset_maintenance();
    if (incremental) {
      net->stabilize_dirty();
    } else {
      net->stabilize_all();
    }
    const double per_stabilize =
        static_cast<double>(net->maintenance_metrics().total()) /
        static_cast<double>(net->node_count());
    add_by_cause(exp::overlay_label(kind), "stabilize", *net);

    table.row()
        .add(exp::overlay_label(kind))
        .add(per_join, 1)
        .add(per_leave, 1)
        .add(per_stabilize, 1);
  }
  report.section(
      "Extension: maintenance overhead (state updates per "
      "membership event, 1600-node networks)",
      table);
  report.json_section("Maintenance updates by cause, per phase",
                      by_cause_table);
  report.note("\n(paper shape: Viceroy pays the most per membership event — it\n"
              " must repair incoming links, including every node whose down/up\n"
              " pointer resolves to the newcomer; Cycloid's joins touch only\n"
              " its leaf-set neighbourhood, deferring the rest to stabilization;\n"
              " Chord/Koorde touch a few ring neighbours. Viceroy and CAN report\n"
              " 0 for stabilization because their repair is eager.)\n");
  return 0;
}
