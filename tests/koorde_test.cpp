// Tests for the Koorde baseline: de Bruijn embedding, imaginary-node
// routing, and the backup/repair failure model behind the paper's Sec. 4.3
// Koorde results.
#include "koorde/koorde.hpp"

#include <gtest/gtest.h>

#include "util/bits.hpp"
#include "util/rng.hpp"

namespace cycloid::koorde {
namespace {

using dht::kNoNode;
using dht::NodeHandle;

TEST(KoordeStructure, DeBruijnPointerPrecedesTwiceId) {
  util::Rng rng(1);
  auto net = KoordeNetwork::build_random(9, 60, rng);
  for (const NodeHandle h : net->node_handles()) {
    const KoordeNode& node = net->node_state(h);
    ASSERT_NE(node.de_bruijn, kNoNode);
    // de_bruijn is the live node at or immediately before 2*id: among all
    // live nodes it minimizes the clockwise distance to 2*id.
    const std::uint64_t target = (2 * node.id) % 512;
    const std::uint64_t gap =
        util::clockwise_distance(node.de_bruijn, target, 512);
    for (const NodeHandle other : net->node_handles()) {
      EXPECT_GE(util::clockwise_distance(other, target, 512), gap)
          << "node " << other << " is a closer predecessor of " << target
          << " than " << node.de_bruijn;
    }
  }
}

TEST(KoordeStructure, BackupsAreConsecutivePredecessorsOfDeBruijn) {
  util::Rng rng(2);
  auto net = KoordeNetwork::build_random(9, 50, rng);
  const auto handles = net->node_handles();
  for (const NodeHandle h : handles) {
    const KoordeNode& node = net->node_state(h);
    ASSERT_EQ(node.db_backups.size(), 3u);
    // Walk the ring backwards from the de Bruijn node.
    auto pos = std::find(handles.begin(), handles.end(), node.de_bruijn);
    ASSERT_NE(pos, handles.end());
    std::size_t idx = static_cast<std::size_t>(pos - handles.begin());
    for (int b = 0; b < 3; ++b) {
      idx = (idx + handles.size() - 1) % handles.size();
      EXPECT_EQ(node.db_backups[static_cast<std::size_t>(b)], handles[idx]);
    }
  }
}

TEST(KoordeLookup, AlwaysFindsOwnerInStableNetworks) {
  util::Rng rng(3);
  for (const std::size_t n : {2u, 7u, 64u, 300u}) {
    auto net = KoordeNetwork::build_random(11, n, rng);
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

TEST(KoordeLookup, CompleteNetworkPathNearBits) {
  auto net = KoordeNetwork::build_complete(8);
  util::Rng rng(4);
  double total = 0;
  const int lookups = 2000;
  dht::LookupMetrics sink;
  for (int i = 0; i < lookups; ++i) {
    total += net->lookup(net->random_node(rng), rng(), sink).hops;
  }
  const double mean = total / lookups;
  // De Bruijn hops ~= bits, plus ~0.5 successor hops per injected 1-bit.
  EXPECT_GT(mean, 4.0);
  EXPECT_LT(mean, 2.0 * 8);
}

TEST(KoordeLookup, SuccessorShareGrowsWithSparsity) {
  // Paper Fig. 14: sparser networks spend a larger fraction of the path on
  // successor hops.
  util::Rng rng(5);
  auto dense = KoordeNetwork::build_complete(9);
  auto sparse = KoordeNetwork::build_random(9, 64, rng);
  const auto successor_share = [&](KoordeNetwork& net) {
    util::Rng r(6);
    double debruijn = 0;
    double successor = 0;
    dht::LookupMetrics sink;
    for (int i = 0; i < 1500; ++i) {
      const dht::LookupResult result =
          net.lookup(net.random_node(r), r(), sink);
      debruijn += result.phase_hops[KoordeNetwork::kDeBruijn];
      successor += result.phase_hops[KoordeNetwork::kSuccessor];
    }
    return successor / (debruijn + successor);
  };
  EXPECT_GT(successor_share(*sparse), successor_share(*dense));
}

TEST(KoordeLookup, OwnerLookupIsLocal) {
  util::Rng rng(7);
  auto net = KoordeNetwork::build_random(10, 100, rng);
  dht::LookupMetrics sink;
  for (int i = 0; i < 100; ++i) {
    const dht::KeyHash key = rng();
    EXPECT_EQ(net->lookup(net->owner_of(key), key, sink).hops, 0);
  }
}

TEST(KoordeMembership, JoinAndLeaveKeepLookupsCorrect) {
  util::Rng rng(8);
  auto net = KoordeNetwork::build_random(10, 80, rng);
  for (int round = 0; round < 100; ++round) {
    if (rng.chance(0.5) && net->node_count() > 10) {
      net->leave(net->random_node(rng));
    } else {
      net->join(rng());
    }
    net->stabilize_all();  // keep de Bruijn pointers fresh for this check
    const dht::KeyHash key = rng();
    dht::LookupMetrics sink;
    const dht::LookupResult result =
        net->lookup(net->random_node(rng), key, sink);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.destination, net->owner_of(key));
  }
}

TEST(KoordeFailures, FewTimeoutsManyFailuresAtHighP) {
  // The defining Koorde shape from paper Table 4 / Sec. 4.3.
  auto net = KoordeNetwork::build_complete(11);
  util::Rng rng(9);
  net->fail_simultaneously(0.5, rng);
  int timeouts = 0;
  int failures = 0;
  const int lookups = 2000;
  for (int i = 0; i < lookups; ++i) {
    const dht::KeyHash key = rng();
    // Absorb each lookup so its backup promotions repair the network.
    dht::LookupMetrics sink;
    const dht::LookupResult result =
        net->lookup(net->random_node(rng), key, sink);
    net->absorb(sink);
    timeouts += result.timeouts;
    if (!result.success) {
      ++failures;
    } else {
      EXPECT_EQ(result.destination, net->owner_of(key));
    }
  }
  EXPECT_GT(failures, 0);
  // Repair-on-timeout keeps the per-lookup timeout mean far below Cycloid's.
  EXPECT_LT(static_cast<double>(timeouts) / lookups, 1.0);
}

TEST(KoordeFailures, LowPIsFullyResolvable) {
  auto net = KoordeNetwork::build_complete(10);
  util::Rng rng(10);
  net->fail_simultaneously(0.1, rng);
  int failures = 0;
  for (int i = 0; i < 1000; ++i) {
    dht::LookupMetrics sink;
    if (!net->lookup(net->random_node(rng), rng(), sink).success) ++failures;
    net->absorb(sink);
  }
  // With three backups, p=0.1 kills a pointer set with prob ~1e-4.
  EXPECT_LE(failures, 5);
}

TEST(KoordeFailures, StabilizationRestoresService) {
  auto net = KoordeNetwork::build_complete(10);
  util::Rng rng(11);
  net->fail_simultaneously(0.5, rng);
  net->stabilize_all();
  dht::LookupMetrics sink;
  for (int i = 0; i < 500; ++i) {
    const dht::KeyHash key = rng();
    const dht::LookupResult result =
        net->lookup(net->random_node(rng), key, sink);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.destination, net->owner_of(key));
    EXPECT_EQ(result.timeouts, 0);
  }
}

TEST(KoordeRepair, PromotionConsumesBackups) {
  // Build a tiny ring, kill a de Bruijn pointer, and watch the promote path.
  util::Rng rng(12);
  auto net = KoordeNetwork::build_random(8, 30, rng);
  // Find a node whose de Bruijn pointer is not itself and kill that pointer
  // gracefully (ring repaired, db pointer stale).
  NodeHandle chosen = kNoNode;
  for (const NodeHandle h : net->node_handles()) {
    const KoordeNode& node = net->node_state(h);
    if (node.de_bruijn != h && node.db_backups[0] != h &&
        net->contains(node.de_bruijn)) {
      chosen = h;
      break;
    }
  }
  ASSERT_NE(chosen, kNoNode);
  const NodeHandle stale = net->node_state(chosen).de_bruijn;
  net->leave(stale);
  ASSERT_TRUE(net->contains(chosen));

  // Drive lookups from `chosen` until its de Bruijn edge is exercised.
  int timeouts = 0;
  for (int i = 0; i < 200 && timeouts == 0; ++i) {
    dht::LookupMetrics sink;
    timeouts += net->lookup(chosen, rng(), sink).timeouts;
    net->absorb(sink);  // applies the promotion the lookup learned
  }
  EXPECT_GT(timeouts, 0);
  EXPECT_NE(net->node_state(chosen).de_bruijn, stale);
  EXPECT_TRUE(net->contains(net->node_state(chosen).de_bruijn));
}

TEST(KoordeDegree, HigherDegreeRingsRouteCorrectly) {
  // Degree-2^b generalization: identifiers as base-2^b digit strings.
  for (const int b : {2, 3}) {
    KoordeNetwork net(12, 3, 3, b);
    util::Rng rng(100 + b);
    while (net.node_count() < 500) net.insert(rng.below(1ULL << 12));
    net.stabilize_all();
    dht::LookupMetrics sink;
    for (int i = 0; i < 400; ++i) {
      const dht::KeyHash key = rng();
      const dht::LookupResult result =
          net.lookup(net.random_node(rng), key, sink);
      EXPECT_TRUE(result.success) << "b=" << b;
      EXPECT_EQ(result.destination, net.owner_of(key)) << "b=" << b;
    }
  }
}

TEST(KoordeDegree, FewerDeBruijnHopsPerLookup) {
  const auto debruijn_hops = [](int b) {
    KoordeNetwork net(12, 3, 3, b);
    for (std::uint64_t id = 0; id < (1ULL << 12); ++id) net.insert(id);
    net.stabilize_all();
    util::Rng rng(7);
    double total = 0;
    const int lookups = 1500;
    dht::LookupMetrics sink;
    for (int i = 0; i < lookups; ++i) {
      total += net.lookup(net.random_node(rng), rng(), sink)
                   .phase_hops[KoordeNetwork::kDeBruijn];
    }
    return total / lookups;
  };
  const double base2 = debruijn_hops(1);
  const double base4 = debruijn_hops(2);
  // A base-4 digit corrects two bits: about half the de Bruijn hops.
  EXPECT_LT(base4, 0.7 * base2);
}

TEST(KoordeDegree, RejectsIndivisibleDigitWidth) {
  EXPECT_DEATH(KoordeNetwork(11, 3, 3, 2), "Precondition");
}

}  // namespace
}  // namespace cycloid::koorde
