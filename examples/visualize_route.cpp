// Route visualization — print Cycloid lookups hop by hop in the paper's
// notation, including the routing phase and the entry type followed at each
// step (compare paper Fig. 4's worked example).
#include <iostream>

#include "core/network.hpp"
#include "util/rng.hpp"

int main() {
  using namespace cycloid;
  using ccc::CccId;
  using ccc::CycloidNetwork;

  const int d = 4;
  auto net = CycloidNetwork::build_complete(d);
  std::cout << "Complete " << d << "-dimensional Cycloid ("
            << net->node_count() << " nodes)\n";

  // Route toward an explicit id: its ring position, read as a key hash,
  // maps back to it.
  const auto route_to = [&](dht::NodeHandle from, const CccId& key,
                            dht::LookupMetrics& sink,
                            std::vector<dht::TraceStep>& trace) {
    dht::RouterOptions options;
    options.trace = &trace;
    return net->route(from, net->space().ring_position(key), sink, options);
  };

  const auto show_route = [&](const CccId& from, const CccId& key) {
    dht::LookupMetrics sink;
    std::vector<dht::TraceStep> trace;
    const dht::LookupResult result =
        route_to(CycloidNetwork::handle_of(from), key, sink, trace);
    static const char* kPhaseNames[] = {"ascend  ", "descend ", "traverse"};
    std::cout << "\nlookup " << ccc::to_string(key, d) << " from "
              << ccc::to_string(from, d) << ":\n";
    std::cout << "  start    " << ccc::to_string(from, d) << "\n";
    for (const auto& step : trace) {
      std::cout << "  " << kPhaseNames[step.phase] << " -> "
                << ccc::to_string(CycloidNetwork::id_of(step.node), d)
                << "   via " << step.link;
      if (step.timeouts_before > 0) {
        std::cout << "  (" << step.timeouts_before << " timeout(s) first)";
      }
      std::cout << "\n";
    }
    std::cout << "  done in " << result.hops << " hops at "
              << ccc::to_string(CycloidNetwork::id_of(result.destination), d)
              << "\n";
  };

  // The paper's Fig. 4 example: (0,0100) -> key (2,1111).
  show_route(CccId{0, 0b0100}, CccId{2, 0b1111});

  // A few more routes, including one that starts at the key's antipode.
  show_route(CccId{3, 0b0000}, CccId{1, 0b1111});
  show_route(CccId{1, 0b1010}, CccId{1, 0b0101});

  // The same route through a degraded network: half the nodes depart, the
  // lookup now pays timeouts and leans on leaf sets.
  util::Rng rng(3);
  net->fail_simultaneously(0.5, rng);
  std::cout << "\n*** after 50% simultaneous departures (" << net->node_count()
            << " nodes remain) ***\n";
  const dht::NodeHandle start = net->random_node(rng);
  dht::LookupMetrics sink;
  std::vector<dht::TraceStep> trace;
  const CccId key{2, 0b1111};
  const auto result = route_to(start, key, sink, trace);
  std::cout << "\nlookup " << ccc::to_string(key, d) << " from "
            << ccc::to_string(CycloidNetwork::id_of(start), d) << ":\n";
  for (const auto& step : trace) {
    std::cout << "  -> " << ccc::to_string(CycloidNetwork::id_of(step.node), d)
              << "  via " << step.link;
    if (step.timeouts_before > 0) {
      std::cout << "  (" << step.timeouts_before << " timeout(s) first)";
    }
    std::cout << "\n";
  }
  std::cout << "  done in " << result.hops << " hops with " << result.timeouts
            << " timeouts; owner reached: "
            << (result.destination == net->owner_of_id(key) ? "yes" : "NO")
            << "\n";
  return 0;
}
