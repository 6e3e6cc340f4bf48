// Table 2 — routing state of Cycloid node (4, 10110110) in a complete
// eight-dimensional network, printed in the paper's notation.
#include <iostream>

#include "bench_common.hpp"
#include "core/network.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using cycloid::ccc::CccId;
  using cycloid::ccc::CycloidNetwork;
  using cycloid::ccc::to_string;
  using cycloid::dht::kNoNode;
  using cycloid::dht::NodeHandle;

  cycloid::bench::Report report(argc, argv, "table2_routing_state",
                                "Table 2: routing state of Cycloid node "
                                "(4, 10110110), d = 8");
  if (report.done()) return report.exit_code();

  const int d = 8;
  auto net = CycloidNetwork::build_complete(d);

  const auto dump = [&](const std::string& title, const CccId& id) {
    const auto& node = net->node_state(CycloidNetwork::handle_of(id));
    const auto show = [&](NodeHandle h) {
      return h == kNoNode ? std::string("-")
                          : to_string(CycloidNetwork::id_of(h), d);
    };
    cycloid::util::Table table({"Entry", "Value"});
    table.row().add("Node").add(to_string(id, d));
    table.row().add("Cubical neighbor").add(show(node.cubical_neighbor));
    table.row().add("Cyclic neighbor (larger)").add(show(node.cyclic_larger));
    table.row().add("Cyclic neighbor (smaller)").add(
        show(node.cyclic_smaller));
    table.row().add("Inside leaf set").add(show(node.inside_pred()[0]) +
                                           "  " + show(node.inside_succ()[0]));
    table.row().add("Outside leaf set").add(
        show(node.outside_pred()[0]) + "  " + show(node.outside_succ()[0]));
    report.section(title, table);
  };

  dump("Table 2: routing state of node (4, 10110110), d = 8",
       CccId{4, 0b10110110});
  // Additional states (cycle ends, paper Sec. 3.1 notes):
  dump("Node (0, 10110110): cyclic index 0, no cubical/cyclic neighbors",
       CccId{0, 0b10110110});
  dump("Node (7, 00000000): primary node of cycle 0", CccId{7, 0b00000000});
  dump("Node (3, 11111111): cubical index 2^d - 1", CccId{3, 0b11111111});
  return 0;
}
