// Tests for the Pastry overlay — the prefix-routing scheme Cycloid's
// descending phase derives from (paper Sec. 2.1).
#include "pastry/pastry.hpp"

#include <gtest/gtest.h>

#include <cmath>

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
