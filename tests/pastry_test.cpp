// Tests for the Pastry overlay — the prefix-routing scheme Cycloid's
// descending phase derives from (paper Sec. 2.1).
#include "pastry/pastry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "pastry_reference.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace cycloid::pastry {
namespace {

using dht::kNoNode;
using dht::NodeHandle;

TEST(PastryDigits, ExtractionMatchesDefinition) {
  PastryNetwork net(12, /*bits_per_digit=*/2);
  EXPECT_EQ(net.digit_count(), 6);
  const std::uint64_t id = 0b11'01'00'10'11'01;
  EXPECT_EQ(net.digit(id, 0), 0b11);
  EXPECT_EQ(net.digit(id, 1), 0b01);
  EXPECT_EQ(net.digit(id, 2), 0b00);
  EXPECT_EQ(net.digit(id, 3), 0b10);
  EXPECT_EQ(net.digit(id, 5), 0b01);
}

TEST(PastryDigits, SharedPrefixLength) {
  PastryNetwork net(12, 2);
  EXPECT_EQ(net.shared_prefix_digits(0b110100101101, 0b110100101101), 6);
  EXPECT_EQ(net.shared_prefix_digits(0b110100101101, 0b110100101100), 5);
  EXPECT_EQ(net.shared_prefix_digits(0b110100101101, 0b000000000000), 0);
  EXPECT_EQ(net.shared_prefix_digits(0b110100000000, 0b110111000000), 2);
}

TEST(PastryStructure, RoutingTableEntriesMatchPrefixPattern) {
  util::Rng rng(1);
  auto net = PastryNetwork::build_random(12, 150, rng, 2);
  for (const NodeHandle h : net->node_handles()) {
    const PastryNode& node = net->node_state(h);
    for (int row = 0; row < net->digit_count(); ++row) {
      for (int col = 0; col < 4; ++col) {
        const NodeHandle entry =
            node.routing_table[static_cast<std::size_t>(row)]
                              [static_cast<std::size_t>(col)];
        if (col == net->digit(node.id, row)) {
          EXPECT_EQ(entry, kNoNode);  // own digit: column unused
          continue;
        }
        if (entry == kNoNode) continue;
        // Entry shares exactly `row` digits with the node and has digit
        // `col` at position `row`.
        EXPECT_GE(net->shared_prefix_digits(entry, node.id), row);
        EXPECT_EQ(net->digit(entry, row), col);
      }
    }
  }
}

TEST(PastryStructure, LeafSetsAreRingNeighbors) {
  util::Rng rng(2);
  auto net = PastryNetwork::build_random(10, 60, rng, 2);
  const auto handles = net->node_handles();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const PastryNode& node = net->node_state(handles[i]);
    ASSERT_EQ(node.leaf_larger.size(), 4u);
    ASSERT_EQ(node.leaf_smaller.size(), 4u);
    for (int s = 0; s < 4; ++s) {
      EXPECT_EQ(node.leaf_larger[static_cast<std::size_t>(s)],
                handles[(i + static_cast<std::size_t>(s) + 1) % handles.size()]);
      EXPECT_EQ(node.leaf_smaller[static_cast<std::size_t>(s)],
                handles[(i + handles.size() - static_cast<std::size_t>(s) - 1) %
                        handles.size()]);
    }
  }
}

TEST(PastryStructure, NeighborhoodHoldsProximityNearestNodes) {
  util::Rng rng(3);
  auto net = PastryNetwork::build_random(10, 40, rng, 2);
  // Freshly stabilized: each node's M holds 8 nodes, none of them itself.
  for (const NodeHandle h : net->node_handles()) {
    const PastryNode& node = net->node_state(h);
    EXPECT_EQ(node.neighborhood.size(), 8u);
    for (const NodeHandle m : node.neighborhood) {
      EXPECT_NE(m, h);
      EXPECT_TRUE(net->contains(m));
    }
  }
}

// The first `m` other nodes in (proximity, handle) order, by a scan of
// every node: the reference the grid search must reproduce exactly.
std::vector<NodeHandle> brute_neighborhood(const PastryNetwork& net,
                                           NodeHandle self, std::size_t m) {
  const PastryNode& node = net.node_state(self);
  std::vector<std::pair<double, NodeHandle>> ranked;
  for (const NodeHandle h : net.node_handles()) {
    if (h == self) continue;
    const PastryNode& other = net.node_state(h);
    ranked.emplace_back(
        PastryNetwork::proximity(node.x, node.y, other.x, other.y), h);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<NodeHandle> handles;
  for (std::size_t i = 0; i < std::min(m, ranked.size()); ++i) {
    handles.push_back(ranked[i].second);
  }
  return handles;
}

void expect_exact_neighborhoods(const PastryNetwork& net, std::size_t m,
                                const char* where) {
  for (const NodeHandle h : net.node_handles()) {
    ASSERT_EQ(net.node_state(h).neighborhood, brute_neighborhood(net, h, m))
        << where << ": node " << h << " of " << net.node_count();
  }
}

TEST(PastryNeighborhood, MatchesBruteForceAfterBulkBuilds) {
  util::Rng rng(11);
  for (const std::size_t n : {2u, 9u, 2048u}) {
    auto net = PastryNetwork::build_random(16, n, rng, 2);
    expect_exact_neighborhoods(*net, 8, "bulk build");
  }
}

TEST(PastryNeighborhood, MatchesBruteForceThroughChurn) {
  util::Rng rng(12);
  auto net = PastryNetwork::build_random(14, 200, rng, 2);
  for (int op = 0; op < 300; ++op) {
    const double roll = rng.uniform01();
    if (roll < 0.4) {
      // A join computes the newcomer's neighbourhood against current
      // membership; everyone else's stays as it was.
      const NodeHandle joined = net->join(rng());
      if (joined == kNoNode) continue;
      ASSERT_EQ(net->node_state(joined).neighborhood,
                brute_neighborhood(*net, joined, 8))
          << "join at op " << op;
    } else if (roll < 0.7 && net->node_count() > 20) {
      net->leave(net->random_node(rng));
    } else if (roll < 0.9 && net->node_count() > 20) {
      net->fail_ungraceful(net->random_node(rng));
    } else {
      net->stabilize_all();
      expect_exact_neighborhoods(*net, 8, "stabilize_all in churn");
    }
  }
  net->stabilize_all();
  expect_exact_neighborhoods(*net, 8, "after churn");

  // Shrink through every grid re-fit down to three nodes.
  while (net->node_count() > 3) net->leave(net->random_node(rng));
  net->stabilize_all();
  expect_exact_neighborhoods(*net, 8, "three nodes");
}

TEST(PastryNeighborhood, TiesOnCellEdgesBreakByHandle) {
  // 128 members fit an 8 x 8 grid, so every lattice point k/8 lies on a
  // cell edge; each point holds two nodes, and equal distances abound.
  PastryNetwork net(12, 2);
  std::uint64_t id = 0;
  for (int copy = 0; copy < 2; ++copy) {
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 8; ++j) {
        ASSERT_TRUE(net.insert(id, i / 8.0, j / 8.0));
        id += 29;  // spread identifiers over the ring
      }
    }
  }
  net.stabilize_all();
  expect_exact_neighborhoods(net, 8, "lattice");

  // Joins at identical and edge coordinates, checked as they land.
  for (int k = 0; k < 8; ++k) {
    const NodeHandle joined = id + 1;
    ASSERT_TRUE(net.insert(joined, k / 8.0, (7 - k) / 8.0));
    id += 29;
    EXPECT_EQ(net.node_state(joined).neighborhood,
              brute_neighborhood(net, joined, 8));
  }
  net.stabilize_all();
  expect_exact_neighborhoods(net, 8, "lattice after joins");
}

TEST(PastryNeighborhood, EmptyAndOversizedSets) {
  util::Rng rng(13);
  PastryNetwork none(12, 2, /*leaf_set_size=*/8, /*neighborhood_size=*/0);
  PastryNetwork all(12, 2, /*leaf_set_size=*/8, /*neighborhood_size=*/50);
  while (all.node_count() < 20) {
    const std::uint64_t id = rng.below(1ULL << 12);
    const double x = rng.uniform01();
    const double y = rng.uniform01();
    none.insert(id, x, y);
    all.insert(id, x, y);
  }
  none.stabilize_all();
  all.stabilize_all();
  for (const NodeHandle h : none.node_handles()) {
    EXPECT_TRUE(none.node_state(h).neighborhood.empty());
  }
  // |M| > n - 1: every other node, nearest first.
  expect_exact_neighborhoods(all, 50, "oversized");
  for (const NodeHandle h : all.node_handles()) {
    EXPECT_EQ(all.node_state(h).neighborhood.size(), 19u);
  }
}

TEST(PastryLookup, AlwaysFindsOwner) {
  util::Rng rng(4);
  for (const std::size_t n : {2u, 9u, 77u, 400u}) {
    auto net = PastryNetwork::build_random(12, n, rng, 2);
    dht::LookupMetrics sink;
    for (int i = 0; i < 300; ++i) {
      const dht::KeyHash key = rng();
      const dht::LookupResult result =
          net->lookup(net->random_node(rng), key, sink);
      EXPECT_TRUE(result.success);
      EXPECT_EQ(result.destination, net->owner_of(key));
      EXPECT_EQ(result.timeouts, 0);
    }
  }
}

TEST(PastryLookup, OwnerIsNumericallyClosest) {
  util::Rng rng(5);
  auto net = PastryNetwork::build_random(12, 120, rng, 2);
  for (int i = 0; i < 300; ++i) {
    const dht::KeyHash key = rng();
    const std::uint64_t target = key % net->space_size();
    const NodeHandle owner = net->owner_of(key);
    const std::uint64_t owner_dist =
        util::circular_distance(owner, target, net->space_size());
    for (const NodeHandle h : net->node_handles()) {
      EXPECT_GE(util::circular_distance(h, target, net->space_size()),
                owner_dist);
    }
  }
}

TEST(PastryLookup, LogarithmicPathLength) {
  util::Rng rng(6);
  auto net = PastryNetwork::build_random(12, 1024, rng, 2);
  double total = 0;
  const int lookups = 2000;
  dht::LookupMetrics sink;
  for (int i = 0; i < lookups; ++i) {
    total += net->lookup(net->random_node(rng), rng(), sink).hops;
  }
  // Base-4 prefix routing: ~log_4(1024) = 5 digit corrections.
  EXPECT_LT(total / lookups, 8.0);
  EXPECT_GT(total / lookups, 2.0);
}

TEST(PastryLookup, PhasePartition) {
  util::Rng rng(7);
  auto net = PastryNetwork::build_random(12, 200, rng, 2);
  dht::LookupMetrics sink;
  for (int i = 0; i < 200; ++i) {
    const dht::LookupResult result =
        net->lookup(net->random_node(rng), rng(), sink);
    EXPECT_EQ(result.phase_hops[PastryNetwork::kPrefix] +
                  result.phase_hops[PastryNetwork::kLeaf],
              result.hops);
  }
}

TEST(PastryMembership, JoinLeaveKeepCorrectness) {
  util::Rng rng(8);
  auto net = PastryNetwork::build_random(11, 90, rng, /*bits_per_digit=*/1);
  for (int round = 0; round < 120; ++round) {
    if (rng.chance(0.5) && net->node_count() > 10) {
      net->leave(net->random_node(rng));
    } else {
      net->join(rng());
    }
    const dht::KeyHash key = rng();
    dht::LookupMetrics sink;
    const dht::LookupResult result =
        net->lookup(net->random_node(rng), key, sink);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.destination, net->owner_of(key));
  }
}

TEST(PastryFailures, TimeoutsOnStaleTablesNoFailures) {
  util::Rng rng(9);
  auto net = PastryNetwork::build_random(11, 800, rng, 1);
  net->fail_simultaneously(0.4, rng);
  int timeouts = 0;
  dht::LookupMetrics sink;
  for (int i = 0; i < 800; ++i) {
    const dht::KeyHash key = rng();
    const dht::LookupResult result =
        net->lookup(net->random_node(rng), key, sink);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.destination, net->owner_of(key));
    timeouts += result.timeouts;
  }
  EXPECT_GT(timeouts, 0);
  net->stabilize_all();
  dht::LookupMetrics stable_sink;
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(
        net->lookup(net->random_node(rng), rng(), stable_sink).timeouts, 0);
  }
}

// The dirty hook reads a few ring ranges and a grid disc where it used to
// scan every node. After each join, leave and silent vanish, the dirty set
// must be the set before the event plus exactly the nodes the old scans
// mark (tests/pastry_reference.hpp): a missed node would leave a stale
// one undrained, an extra one would change what the drains refresh.
std::set<NodeHandle> queued(const PastryNetwork& net) {
  return {net.dirty_queue().begin(), net.dirty_queue().end()};
}

/// Runs `apply`, the event `event` at `node`, and checks the marks. The
/// reference runs where the hook does: after a join, before a departure.
template <typename Apply>
void expect_exact_marks(PastryNetwork& net, dht::MembershipEvent event,
                        NodeHandle node, Apply apply,
                        const std::string& where) {
  std::set<NodeHandle> expected = queued(net);
  if (event != dht::MembershipEvent::kJoin) {
    const std::set<NodeHandle> marks =
        reference_dirty_marks(net, event, node);
    expected.insert(marks.begin(), marks.end());
    apply();
  } else {
    apply();
    const std::set<NodeHandle> marks =
        reference_dirty_marks(net, event, node);
    expected.insert(marks.begin(), marks.end());
  }
  ASSERT_EQ(queued(net), expected) << where << ", node " << node;
  ASSERT_TRUE(net.check_invariants()) << where;
}

/// The farthest member of the widest full neighbourhood among the nodes
/// not queued: its departure sits on the edge of the hook's disc.
NodeHandle widest_edge(const PastryNetwork& net) {
  const auto m = static_cast<std::size_t>(net.neighborhood_size());
  const std::set<NodeHandle> stale = queued(net);
  NodeHandle edge = kNoNode;
  double widest = -1.0;
  for (const NodeHandle h : net.node_handles()) {
    const PastryNode& node = net.node_state(h);
    if (m == 0 || node.neighborhood.size() != m || stale.count(h) != 0) {
      continue;
    }
    const PastryNode* farthest = net.node_of(node.neighborhood.back());
    if (farthest == nullptr) continue;
    const double reach =
        PastryNetwork::proximity(node.x, node.y, farthest->x, farthest->y);
    if (reach > widest) {
      widest = reach;
      edge = farthest->id;
    }
  }
  return edge;
}

/// A soup of joins, graceful leaves, silent vanishes, departures at the
/// disc's edge, drains and the odd unchecked mass failure, every single
/// event checked against the reference.
void run_exact_marks_soup(PastryNetwork& net, util::Rng& rng, int ops,
                          std::size_t floor) {
  for (int op = 0; op < ops; ++op) {
    const std::string where = "op " + std::to_string(op);
    const auto roll = rng.below(10);
    const bool can_leave = net.node_count() > floor;
    if (roll < 3) {
      const std::uint64_t seed = rng();
      const NodeHandle id = util::mix64(seed) % net.space_size();
      if (net.contains(id)) continue;
      ASSERT_NO_FATAL_FAILURE(expect_exact_marks(
          net, dht::MembershipEvent::kJoin, id,
          [&] { ASSERT_EQ(net.join(seed), id); }, where + " join"));
    } else if (roll < 5 && can_leave) {
      const NodeHandle victim = net.random_node(rng);
      ASSERT_NO_FATAL_FAILURE(expect_exact_marks(
          net, dht::MembershipEvent::kGracefulLeave, victim,
          [&] { net.leave(victim); }, where + " leave"));
    } else if (roll < 7 && can_leave) {
      const NodeHandle victim = net.random_node(rng);
      ASSERT_NO_FATAL_FAILURE(expect_exact_marks(
          net, dht::MembershipEvent::kVanish, victim,
          [&] { net.fail_ungraceful(victim); }, where + " vanish"));
    } else if (roll < 8 && can_leave) {
      const NodeHandle victim = widest_edge(net);
      if (victim == kNoNode) continue;
      ASSERT_NO_FATAL_FAILURE(expect_exact_marks(
          net, dht::MembershipEvent::kGracefulLeave, victim,
          [&] { net.leave(victim); }, where + " edge leave"));
    } else if (roll < 9 || !can_leave) {
      net.stabilize_dirty(op % 2 == 0 ? 1 : 3);
      ASSERT_EQ(net.dirty_queue().size(), 0u) << where;
      ASSERT_TRUE(net.check_invariants()) << where;
    } else if (net.node_count() > 2 * floor) {
      net.fail_simultaneously(0.05, rng);
      ASSERT_TRUE(net.check_invariants()) << where;
    }
  }
}

std::unique_ptr<PastryNetwork> bulk_network(int bits, int bits_per_digit,
                                            int neighborhood_size,
                                            std::size_t n, util::Rng& rng) {
  auto net = std::make_unique<PastryNetwork>(bits, bits_per_digit, 8,
                                             neighborhood_size);
  net->begin_bulk();
  while (net->node_count() < n) {
    net->insert(rng.below(net->space_size()), rng.uniform01(),
                rng.uniform01());
  }
  net->finish_bulk();
  return net;
}

TEST(PastryDirtyHook, MarksExactlyTheReferenceSetThroughChurn) {
  // |M| = 400 exceeds every network size here: the hook reads all nodes.
  for (const int b : {1, 2}) {
    for (const int m : {0, 8, 400}) {
      SCOPED_TRACE("b = " + std::to_string(b) + ", |M| = " +
                   std::to_string(m));
      util::Rng rng(static_cast<std::uint64_t>(100 * b + m));
      auto net = bulk_network(12, b, m, 160, rng);
      ASSERT_TRUE(net->check_invariants());
      net->set_dirty_tracking(true);
      ASSERT_NO_FATAL_FAILURE(run_exact_marks_soup(*net, rng, 400, 40));
    }
  }
}

TEST(PastryDirtyHook, MarksExactlyTheReferenceSetWhileGrowingFromOneNode) {
  // Joins alone from a single node cross |M| + 1 nodes, where the hook
  // switches from reading every node to the disc; then a mixed soup.
  for (const int b : {1, 2}) {
    SCOPED_TRACE("b = " + std::to_string(b));
    util::Rng rng(static_cast<std::uint64_t>(b));
    PastryNetwork net(10, b, 8, 8);
    ASSERT_TRUE(net.insert(rng.below(net.space_size()), rng.uniform01(),
                           rng.uniform01()));
    net.set_dirty_tracking(true);
    for (int op = 0; net.node_count() < 120; ++op) {
      const std::uint64_t seed = rng();
      const NodeHandle id = util::mix64(seed) % net.space_size();
      if (net.contains(id)) continue;
      ASSERT_NO_FATAL_FAILURE(expect_exact_marks(
          net, dht::MembershipEvent::kJoin, id,
          [&] { ASSERT_EQ(net.join(seed), id); },
          "growth join " + std::to_string(op)));
      if (op % 7 == 6) net.stabilize_dirty();
    }
    ASSERT_NO_FATAL_FAILURE(run_exact_marks_soup(net, rng, 300, 10));
  }
}

TEST(PastryConfig, RejectsIndivisibleDigitWidth) {
  EXPECT_DEATH(PastryNetwork(11, 2), "Precondition");
}

}  // namespace
}  // namespace cycloid::pastry
