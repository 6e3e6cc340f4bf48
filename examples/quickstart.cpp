// Quickstart — the five-minute tour of the Cycloid library:
//   1. build a Cycloid network,
//   2. look at a node's constant-size routing state,
//   3. store and fetch values through the DhtStore layer,
//   4. watch a node join and a node leave,
//   5. run a lookup and inspect its three routing phases.
#include <iostream>

#include "core/network.hpp"
#include "dht/store.hpp"
#include "hash/keys.hpp"
#include "util/rng.hpp"

int main() {
  using namespace cycloid;
  using ccc::CccId;
  using ccc::CycloidNetwork;

  // 1. A 5-dimensional Cycloid (identifier space 5 * 2^5 = 160) with 140
  //    participants, each keeping exactly seven routing entries.
  util::Rng build_rng(1);
  auto net = ccc::CycloidNetwork::build_random(5, 140, build_rng);
  std::cout << "Built " << net->name() << " with " << net->node_count()
            << " nodes (d = " << net->space().dimension() << ")\n";

  // 2. Routing state of one node, in the paper's (k, a_{d-1}..a_0) notation.
  //    Pick a node with a full routing table (cyclic index > 0).
  dht::NodeHandle sample = dht::kNoNode;
  for (const dht::NodeHandle h : net->node_handles()) {
    const auto& candidate = net->node_state(h);
    if (candidate.id.cyclic > 0 && candidate.cubical_neighbor != dht::kNoNode &&
        candidate.cyclic_larger != dht::kNoNode &&
        candidate.cyclic_smaller != dht::kNoNode) {
      sample = h;
      break;
    }
  }
  const auto& state = net->node_state(sample);
  std::cout << "\nRouting state of "
            << ccc::to_string(CycloidNetwork::id_of(sample), 5) << ":\n"
            << "  cubical neighbor : "
            << ccc::to_string(CycloidNetwork::id_of(state.cubical_neighbor), 5)
            << "\n  cyclic neighbors : "
            << ccc::to_string(CycloidNetwork::id_of(state.cyclic_larger), 5)
            << "  "
            << ccc::to_string(CycloidNetwork::id_of(state.cyclic_smaller), 5)
            << "\n  inside leaf set  : "
            << ccc::to_string(CycloidNetwork::id_of(state.inside_pred()[0]),
                              5)
            << "  "
            << ccc::to_string(CycloidNetwork::id_of(state.inside_succ()[0]),
                              5)
            << "\n  outside leaf set : "
            << ccc::to_string(CycloidNetwork::id_of(state.outside_pred()[0]),
                              5)
            << "  "
            << ccc::to_string(CycloidNetwork::id_of(state.outside_succ()[0]),
                              5)
            << "\n";

  // 3. Key-value storage: values live at the key's numerically closest node.
  dht::DhtStore store(*net);
  store.put("alice.txt", "contents of alice's file");
  store.put("bob.txt", "contents of bob's file");
  const auto value = store.get("alice.txt");
  std::cout << "\nget(alice.txt) -> "
            << (value ? *value : std::string("<missing>")) << "\n";

  // 4. Membership is dynamic: a node joins with only leaf-set repair, a
  //    node leaves gracefully, and the store re-seats displaced keys.
  dht::NodeHandle newcomer = dht::kNoNode;
  for (std::uint64_t seed = 424242; newcomer == dht::kNoNode; ++seed) {
    newcomer = net->join(seed);  // retry on identifier collisions
  }
  std::cout << "\nNode "
            << (newcomer == dht::kNoNode
                    ? std::string("<collision>")
                    : ccc::to_string(CycloidNetwork::id_of(newcomer), 5))
            << " joined; re-seated " << store.rebalance() << " keys\n";
  util::Rng rng(7);
  const dht::NodeHandle leaver = net->random_node(rng);
  net->leave(leaver);
  std::cout << "Node " << ccc::to_string(CycloidNetwork::id_of(leaver), 5)
            << " left; re-seated " << store.rebalance() << " keys\n";

  // 5. One lookup, step by step: ascend to a primary node, descend through
  //    cube and cycle edges, traverse the final cycle.
  const dht::NodeHandle source = net->random_node(rng);
  const dht::KeyHash key = hash::hash_name("alice.txt");
  dht::LookupMetrics sink;
  const dht::LookupResult result = net->lookup(source, key, sink);
  std::cout << "\nLookup of alice.txt from "
            << ccc::to_string(CycloidNetwork::id_of(source), 5) << ":\n"
            << "  hops = " << result.hops << " (ascend "
            << result.phase_hops[CycloidNetwork::kAscend] << ", descend "
            << result.phase_hops[CycloidNetwork::kDescend] << ", traverse "
            << result.phase_hops[CycloidNetwork::kTraverse] << ")\n"
            << "  destination = "
            << ccc::to_string(CycloidNetwork::id_of(result.destination), 5)
            << (result.destination == net->owner_of(key)
                    ? " (the key's owner)"
                    : " (NOT the owner — bug!)")
            << "\n";
  return 0;
}
