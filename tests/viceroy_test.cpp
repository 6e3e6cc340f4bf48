// Tests for the Viceroy baseline: butterfly link structure, three-phase
// routing, and the zero-timeout maintenance model.
#include "viceroy/viceroy.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "hash/keys.hpp"
#include "util/rng.hpp"

namespace cycloid::viceroy {
namespace {

using dht::kNoNode;
using dht::NodeHandle;

NodeHandle brute_force_owner(const ViceroyNetwork& net, double key) {
  // Successor on the unit ring: minimal clockwise distance from key.
  NodeHandle best = kNoNode;
  double best_dist = 2.0;
  for (const NodeHandle h : net.node_handles()) {
    const double id = net.node_state(h).id;
    double d = id - key;
    if (d < 0.0) d += 1.0;
    if (d < best_dist) {
      best_dist = d;
      best = h;
    }
  }
  return best;
}

TEST(ViceroyBuild, LevelsWithinEstimate) {
  util::Rng rng(1);
  auto net = ViceroyNetwork::build_random(256, rng);
  EXPECT_EQ(net->node_count(), 256u);
  for (const NodeHandle h : net->node_handles()) {
    const ViceroyNode& node = net->node_state(h);
    EXPECT_GE(node.level, 1);
    EXPECT_LE(node.level, 8);  // log2(256)
    EXPECT_GE(node.id, 0.0);
    EXPECT_LT(node.id, 1.0);
  }
  EXPECT_LE(net->max_level(), 8);
}

TEST(ViceroyLinks, RingNeighborsAreAdjacent) {
  util::Rng rng(2);
  auto net = ViceroyNetwork::build_random(64, rng);
  const auto handles = net->node_handles();  // ascending id order
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const ViceroyLinks links = net->links_of(handles[i]);
    EXPECT_EQ(links.ring_succ, handles[(i + 1) % handles.size()]);
    EXPECT_EQ(links.ring_pred,
              handles[(i + handles.size() - 1) % handles.size()]);
  }
}

TEST(ViceroyLinks, LevelRingStaysOnLevel) {
  util::Rng rng(3);
  auto net = ViceroyNetwork::build_random(128, rng);
  for (const NodeHandle h : net->node_handles()) {
    const ViceroyNode& node = net->node_state(h);
    const ViceroyLinks links = net->links_of(h);
    if (links.level_next != kNoNode) {
      EXPECT_EQ(net->node_state(links.level_next).level, node.level);
      EXPECT_NE(links.level_next, h);
    }
    if (links.level_prev != kNoNode) {
      EXPECT_EQ(net->node_state(links.level_prev).level, node.level);
    }
  }
}

TEST(ViceroyLinks, DownLinksGoOneLevelDeeperUpGoesShallower) {
  util::Rng rng(4);
  auto net = ViceroyNetwork::build_random(128, rng);
  for (const NodeHandle h : net->node_handles()) {
    const ViceroyNode& node = net->node_state(h);
    const ViceroyLinks links = net->links_of(h);
    if (links.down_left != kNoNode) {
      EXPECT_EQ(net->node_state(links.down_left).level, node.level + 1);
    }
    if (links.down_right != kNoNode) {
      EXPECT_EQ(net->node_state(links.down_right).level, node.level + 1);
    }
    if (node.level == 1) {
      EXPECT_EQ(links.up, kNoNode);
    } else if (links.up != kNoNode) {
      EXPECT_LT(net->node_state(links.up).level, node.level);
    }
  }
}

TEST(ViceroyLookup, AlwaysFindsOwner) {
  util::Rng rng(5);
  for (const std::size_t n : {2u, 9u, 50u, 300u}) {
    auto net = ViceroyNetwork::build_random(n, rng);
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

TEST(ViceroyLookup, OwnerMatchesBruteForce) {
  util::Rng rng(6);
  auto net = ViceroyNetwork::build_random(100, rng);
  for (int i = 0; i < 300; ++i) {
    const dht::KeyHash key = rng();
    EXPECT_EQ(net->owner_of(key),
              brute_force_owner(*net, hash::reduce_unit(key)));
  }
}

TEST(ViceroyLookup, PathIsLogarithmicButLongerThanChordLike) {
  util::Rng rng(7);
  auto net = ViceroyNetwork::build_random(1024, rng);
  double total = 0;
  const int lookups = 1500;
  dht::LookupMetrics sink;
  for (int i = 0; i < lookups; ++i) {
    total += net->lookup(net->random_node(rng), rng(), sink).hops;
  }
  const double mean = total / lookups;
  // Viceroy pays all three phases: roughly c * log2 n with c >= 1.5.
  EXPECT_GT(mean, std::log2(1024.0));
  EXPECT_LT(mean, 5.0 * std::log2(1024.0));
}

TEST(ViceroyLookup, PhasesPartitionThePath) {
  util::Rng rng(8);
  auto net = ViceroyNetwork::build_random(256, rng);
  dht::LookupMetrics sink;
  for (int i = 0; i < 300; ++i) {
    const dht::LookupResult result =
        net->lookup(net->random_node(rng), rng(), sink);
    EXPECT_EQ(result.phase_hops[ViceroyNetwork::kAscend] +
                  result.phase_hops[ViceroyNetwork::kDescend] +
                  result.phase_hops[ViceroyNetwork::kRing],
              result.hops);
  }
}

TEST(ViceroyLookup, AscendReachesLevelOneBeforeDescending) {
  util::Rng rng(9);
  auto net = ViceroyNetwork::build_random(512, rng);
  // A level-1 source must never pay ascending hops.
  dht::LookupMetrics sink;
  for (const NodeHandle h : net->node_handles()) {
    if (net->node_state(h).level != 1) continue;
    const dht::LookupResult result = net->lookup(h, rng(), sink);
    EXPECT_EQ(result.phase_hops[ViceroyNetwork::kAscend], 0);
    break;
  }
}

TEST(ViceroyMembership, JoinLeaveKeepCorrectness) {
  util::Rng rng(10);
  auto net = ViceroyNetwork::build_random(80, rng);
  for (int round = 0; round < 150; ++round) {
    if (rng.chance(0.5) && net->node_count() > 8) {
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
    EXPECT_EQ(result.timeouts, 0);
  }
}

TEST(ViceroyFailures, ZeroTimeoutsAndShorterPathsAfterMassDeparture) {
  util::Rng rng(11);
  auto net = ViceroyNetwork::build_random(1024, rng);
  const auto mean_path = [&](int lookups) {
    util::Rng r(12);
    double total = 0;
    dht::LookupMetrics sink;
    for (int i = 0; i < lookups; ++i) {
      const dht::LookupResult result =
          net->lookup(net->random_node(r), r(), sink);
      EXPECT_EQ(result.timeouts, 0);
      EXPECT_TRUE(result.success);
      total += result.hops;
    }
    return total / lookups;
  };
  const double before = mean_path(800);
  net->fail_simultaneously(0.5, rng);
  const double after = mean_path(800);
  // Paper Sec. 4.3: Viceroy's path length *decreases* as the network halves.
  EXPECT_LT(after, before);
}

TEST(ViceroyQueryLoad, HigherLevelsAreNotHotter) {
  // Sanity for the Fig. 10 mechanism: load counters accumulate.
  util::Rng rng(13);
  auto net = ViceroyNetwork::build_random(128, rng);
  std::uint64_t hops = 0;
  dht::LookupMetrics sink;
  for (int i = 0; i < 500; ++i) {
    hops += static_cast<std::uint64_t>(
        net->lookup(net->random_node(rng), rng(), sink).hops);
  }
  std::uint64_t received = 0;
  for (const std::uint64_t load : sink.query_load_vector(*net)) {
    received += load;
  }
  EXPECT_EQ(received, hops);
}

TEST(ViceroyInsert, RejectsDuplicateIdentifier) {
  ViceroyNetwork net;
  EXPECT_TRUE(net.insert(0.25, 1));
  EXPECT_FALSE(net.insert(0.25, 2));
  EXPECT_EQ(net.node_count(), 1u);
}

TEST(ViceroySingleton, OwnsEverything) {
  ViceroyNetwork net;
  ASSERT_TRUE(net.insert(0.5, 1));
  util::Rng rng(14);
  const NodeHandle only = net.node_handles().front();
  dht::LookupMetrics sink;
  for (int i = 0; i < 50; ++i) {
    const dht::LookupResult result = net.lookup(only, rng(), sink);
    EXPECT_EQ(result.destination, only);
    EXPECT_EQ(result.hops, 0);
  }
}

}  // namespace
}  // namespace cycloid::viceroy
