// Tests for the Pastry overlay — the prefix-routing scheme Cycloid's
// descending phase derives from (paper Sec. 2.1).
#include "pastry/pastry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

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

TEST(PastryConfig, RejectsIndivisibleDigitWidth) {
  EXPECT_DEATH(PastryNetwork(11, 2), "Precondition");
}

}  // namespace
}  // namespace cycloid::pastry
