// Tests for the CAN overlay — zone splits/merges, toroidal adjacency, and
// greedy coordinate routing (paper Sec. 2.3).
#include "can/can.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace cycloid::can {
namespace {

using dht::kNoNode;
using dht::NodeHandle;

TEST(CanBuild, FirstNodeOwnsEverything) {
  CanNetwork net(2);
  const NodeHandle h = net.join_at(Point{0.3, 0.7});
  EXPECT_EQ(net.node_count(), 1u);
  EXPECT_DOUBLE_EQ(net.volume_of(h), 1.0);
  EXPECT_TRUE(net.check_invariants());
}

TEST(CanBuild, SplitHalvesTheZone) {
  CanNetwork net(2);
  const NodeHandle a = net.join_at(Point{0.25, 0.5});
  const NodeHandle b = net.join_at(Point{0.75, 0.5});
  EXPECT_DOUBLE_EQ(net.volume_of(a), 0.5);
  EXPECT_DOUBLE_EQ(net.volume_of(b), 0.5);
  // The two halves are mutual neighbours.
  EXPECT_EQ(net.neighbors_of(net.node_state(a)), std::vector<NodeHandle>{b});
  EXPECT_EQ(net.neighbors_of(net.node_state(b)), std::vector<NodeHandle>{a});
  EXPECT_TRUE(net.check_invariants());
}

TEST(CanBuild, VolumesAlwaysSumToOne) {
  util::Rng rng(1);
  auto net = CanNetwork::build_random(128, rng);
  double total = 0.0;
  for (const NodeHandle h : net->node_handles()) total += net->volume_of(h);
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_TRUE(net->check_invariants());
}

TEST(CanBuild, ThreeDimensionalNetworksWork) {
  util::Rng rng(2);
  auto net = CanNetwork::build_random(64, rng, /*dims=*/3);
  EXPECT_TRUE(net->check_invariants());
  dht::LookupMetrics sink;
  for (int i = 0; i < 200; ++i) {
    const dht::KeyHash key = rng();
    const dht::LookupResult result =
        net->lookup(net->random_node(rng), key, sink);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.destination, net->owner_of(key));
  }
}

TEST(CanLookup, AlwaysFindsOwner) {
  util::Rng rng(3);
  for (const std::size_t n : {1u, 2u, 17u, 130u, 500u}) {
    auto net = CanNetwork::build_random(n, rng);
    dht::LookupMetrics sink;
    for (int i = 0; i < 300; ++i) {
      const dht::KeyHash key = rng();
      const dht::LookupResult result =
          net->lookup(net->random_node(rng), key, sink);
      EXPECT_TRUE(result.success);
      EXPECT_EQ(result.destination, net->owner_of(key));
      EXPECT_EQ(result.timeouts, 0);  // neighbour state never goes stale
    }
  }
}

TEST(CanLookup, PathScalesAsSquareRoot) {
  util::Rng rng(4);
  const auto mean_path = [&](std::size_t n) {
    auto net = CanNetwork::build_random(n, rng);
    double total = 0;
    const int lookups = 1500;
    dht::LookupMetrics sink;
    for (int i = 0; i < lookups; ++i) {
      total += net->lookup(net->random_node(rng), rng(), sink).hops;
    }
    return total / lookups;
  };
  const double at_100 = mean_path(100);
  const double at_900 = mean_path(900);
  // O(sqrt(n)) growth: 9x nodes should roughly 3x the path, and certainly
  // grow far faster than log (which would add ~3 hops).
  EXPECT_GT(at_900, 1.8 * at_100);
  EXPECT_LT(at_900, 6.0 * at_100);
}

TEST(CanMembership, LeaveHandsZonesOver) {
  util::Rng rng(5);
  auto net = CanNetwork::build_random(60, rng);
  for (int i = 0; i < 40; ++i) {
    const NodeHandle victim = net->random_node(rng);
    net->leave(victim);
    EXPECT_FALSE(net->contains(victim));
    ASSERT_TRUE(net->check_invariants()) << "after leave " << i;
  }
  EXPECT_EQ(net->node_count(), 20u);
}

TEST(CanMembership, ChurnPreservesInvariantsAndCorrectness) {
  util::Rng rng(6);
  auto net = CanNetwork::build_random(80, rng);
  for (int round = 0; round < 150; ++round) {
    if (rng.chance(0.5) && net->node_count() > 5) {
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
  EXPECT_TRUE(net->check_invariants());
}

TEST(CanMembership, CoalesceMergesBuddies) {
  // Split once, then remove the newcomer: the survivor's two half-zones
  // must merge back into the full space.
  CanNetwork net(2);
  const NodeHandle a = net.join_at(Point{0.25, 0.5});
  const NodeHandle b = net.join_at(Point{0.75, 0.5});
  net.leave(b);
  EXPECT_DOUBLE_EQ(net.volume_of(a), 1.0);
  EXPECT_EQ(net.node_state(a).zones.size(), 1u);
}

TEST(CanRoutingTable, CoalesceLeavesAFinerCopyThatMeasuresTheSame) {
  // a takes b's half when b leaves, then d splits the lower quarter off
  // it, leaving a two buddy boxes, [0, .5) x [.5, 1) and [.5, 1) x [.5, 1).
  // Only a refresh merges them, and it leaves the neighbours' copies
  // alone: c and d still hold both boxes, and the nearest of them must be
  // exactly as far from every point as the merged zone.
  CanNetwork net(2);
  const NodeHandle a = net.join_at(Point{0.3, 0.7});
  const NodeHandle b = net.join_at(Point{0.75, 0.5});
  const NodeHandle c = net.join_at(Point{0.25, 0.25});
  net.leave(b);
  const NodeHandle d = net.join_at(Point{0.75, 0.25});
  ASSERT_EQ(net.node_state(a).zones.size(), 2u);
  net.stabilize_all();
  ASSERT_EQ(net.node_state(a).zones.size(), 1u);
  ASSERT_TRUE(net.check_invariants());

  for (const NodeHandle h : {c, d}) {
    const CanNode& node = net.node_state(h);
    std::vector<const std::uint64_t*> boxes;
    for (std::size_t at = 0; at < node.table.size(); at += net.entry_words()) {
      if (node.table[at] == a) boxes.push_back(&node.table[at]);
    }
    ASSERT_EQ(boxes.size(), 2u) << "node " << h;
    for (int i = 0; i <= 16; ++i) {
      for (int j = 0; j <= 16; ++j) {
        const Point p{std::fmod(i / 16.0 + 1e-3, 1.0),
                      std::fmod(j / 16.0 + 1e-3, 1.0)};
        double cached = 4.0;
        for (const std::uint64_t* box : boxes) {
          cached = std::min(cached, net.entry_distance2(box, p));
        }
        EXPECT_EQ(cached, net.node_distance2(net.node_state(a), p))
            << "node " << h << " point " << p[0] << ", " << p[1];
      }
    }
  }

  util::Rng rng(10);
  dht::LookupMetrics sink;
  for (const NodeHandle from : net.node_handles()) {
    for (int i = 0; i < 64; ++i) {
      const dht::KeyHash key = rng();
      const dht::LookupResult result = net.lookup(from, key, sink);
      EXPECT_TRUE(result.success);
      EXPECT_EQ(result.destination, net.owner_of(key));
    }
  }
}

TEST(CanMembership, MassDepartureKeepsServiceCorrect) {
  util::Rng rng(7);
  auto net = CanNetwork::build_random(300, rng);
  net->fail_simultaneously(0.5, rng);
  EXPECT_TRUE(net->check_invariants());
  dht::LookupMetrics sink;
  for (int i = 0; i < 300; ++i) {
    const dht::KeyHash key = rng();
    const dht::LookupResult result =
        net->lookup(net->random_node(rng), key, sink);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.destination, net->owner_of(key));
  }
}

TEST(CanGeometry, PointFromHashCoversSpace) {
  CanNetwork net(2);
  util::Rng rng(8);
  double min_x = 1.0, max_x = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const Point p = net.point_from_hash(rng());
    ASSERT_GE(p[0], 0.0);
    ASSERT_LT(p[0], 1.0);
    ASSERT_GE(p[1], 0.0);
    ASSERT_LT(p[1], 1.0);
    min_x = std::min(min_x, p[0]);
    max_x = std::max(max_x, p[0]);
  }
  EXPECT_LT(min_x, 0.05);
  EXPECT_GT(max_x, 0.95);
}

// The one node whose zones contain the key's point, found by scanning
// every node's zones: the reference owner_of's grid lookup must match.
NodeHandle zone_scan_owner(const CanNetwork& net, dht::KeyHash key) {
  const Point p = net.point_from_hash(key);
  NodeHandle owner = kNoNode;
  for (const NodeHandle h : net.node_handles()) {
    if (!net.node_owns_point(h, p)) continue;
    EXPECT_EQ(owner, kNoNode) << "two owners of one point";
    owner = h;
  }
  return owner;
}

TEST(CanOwnership, OwnerOfMatchesZoneScanThroughChurn) {
  for (int dims = 1; dims <= kMaxDims; ++dims) {
    util::Rng rng(20 + static_cast<std::uint64_t>(dims));
    auto net = CanNetwork::build_random(150, rng, dims);
    const auto check = [&](int op) {
      ASSERT_TRUE(net->check_invariants()) << "dims " << dims << " op " << op;
      // Cell and zone edges: the origin and the midpoint of axis 0.
      for (const dht::KeyHash key : {dht::KeyHash{0}, dht::KeyHash{1} << 63}) {
        ASSERT_EQ(net->owner_of(key), zone_scan_owner(*net, key))
            << "dims " << dims << " op " << op << " key " << key;
      }
      for (int i = 0; i < 8; ++i) {
        const dht::KeyHash key = rng();
        ASSERT_EQ(net->owner_of(key), zone_scan_owner(*net, key))
            << "dims " << dims << " op " << op << " key " << key;
      }
    };
    check(-1);
    for (int op = 0; op < 300; ++op) {
      const double roll = rng.uniform01();
      if (roll < 0.4) {
        net->join(rng());
      } else if (roll < 0.7 && net->node_count() > 1) {
        net->leave(net->random_node(rng));
      } else if (roll < 0.9 && net->node_count() > 1) {
        net->fail_ungraceful(net->random_node(rng));
      } else {
        net->stabilize_all();
      }
      check(op);
    }
    // Down to a single node, through every grid re-fit on the way.
    while (net->node_count() > 1) {
      net->leave(net->random_node(rng));
      check(-2);
    }
    EXPECT_DOUBLE_EQ(net->volume_of(net->node_handles().front()), 1.0);
  }
}

}  // namespace
}  // namespace cycloid::can
