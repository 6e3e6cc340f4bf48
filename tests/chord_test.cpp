// Tests for the Chord baseline: ring structure, finger tables, greedy
// routing, and the graceful-departure model.
#include "chord/chord.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/bits.hpp"
#include "util/rng.hpp"

namespace cycloid::chord {
namespace {

using dht::kNoNode;
using dht::NodeHandle;

NodeHandle brute_force_owner(const ChordNetwork& net, std::uint64_t key) {
  // Successor: minimal clockwise distance from key to node.
  NodeHandle best = kNoNode;
  std::uint64_t best_dist = ~0ULL;
  for (const NodeHandle h : net.node_handles()) {
    const std::uint64_t dist =
        util::clockwise_distance(key % net.space_size(), h, net.space_size());
    if (dist < best_dist) {
      best_dist = dist;
      best = h;
    }
  }
  return best;
}

TEST(ChordStructure, FingersTargetSuccessorOfOffset) {
  util::Rng rng(1);
  auto net = ChordNetwork::build_random(8, 40, rng);
  for (const NodeHandle h : net->node_handles()) {
    const ChordNode& node = net->node_state(h);
    ASSERT_EQ(node.fingers.size(), 8u);
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t offset = (node.id + (1ULL << i)) % 256;
      EXPECT_EQ(node.fingers[static_cast<std::size_t>(i)],
                brute_force_owner(*net, offset));
    }
  }
}

TEST(ChordStructure, SuccessorListIsConsecutive) {
  util::Rng rng(2);
  auto net = ChordNetwork::build_random(8, 30, rng);
  const auto handles = net->node_handles();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const ChordNode& node = net->node_state(handles[i]);
    ASSERT_EQ(node.successors.size(), 3u);
    for (int s = 0; s < 3; ++s) {
      EXPECT_EQ(node.successors[static_cast<std::size_t>(s)],
                handles[(i + static_cast<std::size_t>(s) + 1) % handles.size()]);
    }
    EXPECT_EQ(node.predecessor,
              handles[(i + handles.size() - 1) % handles.size()]);
  }
}

TEST(ChordLookup, AlwaysFindsOwner) {
  util::Rng rng(3);
  for (const std::size_t n : {2u, 5u, 37u, 200u}) {
    auto net = ChordNetwork::build_random(11, n, rng);
    dht::LookupMetrics sink;
    for (int i = 0; i < 300; ++i) {
      const dht::KeyHash key = rng();
      const dht::LookupResult result =
          net->lookup(net->random_node(rng), key, sink);
      EXPECT_TRUE(result.success);
      EXPECT_EQ(result.destination, net->owner_of(key));
      EXPECT_EQ(net->owner_of(key), brute_force_owner(*net, key));
    }
  }
}

TEST(ChordLookup, LogarithmicPathLength) {
  util::Rng rng(4);
  auto net = ChordNetwork::build_random(12, 1024, rng);
  double total = 0;
  const int lookups = 2000;
  dht::LookupMetrics sink;
  for (int i = 0; i < lookups; ++i) {
    total += net->lookup(net->random_node(rng), rng(), sink).hops;
  }
  const double mean = total / lookups;
  // Chord's mean is ~(1/2) log2 n = 5; allow generous slack.
  EXPECT_GT(mean, 2.5);
  EXPECT_LT(mean, 10.0);
}

TEST(ChordLookup, OwnerLookupIsLocal) {
  util::Rng rng(5);
  auto net = ChordNetwork::build_random(10, 64, rng);
  dht::LookupMetrics sink;
  for (int i = 0; i < 100; ++i) {
    const dht::KeyHash key = rng();
    const dht::LookupResult result = net->lookup(net->owner_of(key), key, sink);
    EXPECT_EQ(result.hops, 0);
  }
}

TEST(ChordMembership, JoinThenLookupCorrect) {
  ChordNetwork net(10);
  util::Rng rng(6);
  for (int i = 0; i < 80; ++i) net.join(rng());
  EXPECT_GT(net.node_count(), 60u);
  dht::LookupMetrics sink;
  for (int i = 0; i < 200; ++i) {
    const dht::KeyHash key = rng();
    EXPECT_EQ(net.lookup(net.random_node(rng), key, sink).destination,
              net.owner_of(key));
  }
}

TEST(ChordMembership, LeaveKeepsLookupsCorrect) {
  util::Rng rng(7);
  auto net = ChordNetwork::build_random(10, 120, rng);
  for (int i = 0; i < 60; ++i) net->leave(net->random_node(rng));
  dht::LookupMetrics sink;
  for (int i = 0; i < 300; ++i) {
    const dht::KeyHash key = rng();
    const dht::LookupResult result =
        net->lookup(net->random_node(rng), key, sink);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.destination, net->owner_of(key));
  }
}

TEST(ChordFailures, TimeoutsButNoFailures) {
  auto net = ChordNetwork::build_complete(9);
  util::Rng rng(8);
  net->fail_simultaneously(0.5, rng);
  int timeouts = 0;
  dht::LookupMetrics sink;
  for (int i = 0; i < 500; ++i) {
    const dht::KeyHash key = rng();
    const dht::LookupResult result =
        net->lookup(net->random_node(rng), key, sink);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.destination, net->owner_of(key));
    timeouts += result.timeouts;
  }
  EXPECT_GT(timeouts, 0);
}

TEST(ChordFailures, StabilizationClearsTimeouts) {
  auto net = ChordNetwork::build_complete(9);
  util::Rng rng(9);
  net->fail_simultaneously(0.3, rng);
  net->stabilize_all();
  dht::LookupMetrics sink;
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(net->lookup(net->random_node(rng), rng(), sink).timeouts, 0);
  }
}

TEST(ChordBuilders, CompleteNetworkPopulatesEveryIdentifier) {
  auto net = ChordNetwork::build_complete(6);
  EXPECT_EQ(net->node_count(), 64u);
  const auto handles = net->node_handles();
  for (std::uint64_t id = 0; id < 64; ++id) {
    EXPECT_EQ(handles[id], id);
  }
}

TEST(ChordBuilders, RandomNetworkHasDistinctIds) {
  util::Rng rng(11);
  auto net = ChordNetwork::build_random(8, 100, rng);
  const auto handles = net->node_handles();
  const std::set<NodeHandle> unique(handles.begin(), handles.end());
  EXPECT_EQ(unique.size(), 100u);
}

}  // namespace
}  // namespace cycloid::chord
