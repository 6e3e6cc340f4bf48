// Tests for the Viceroy baseline: butterfly link structure, three-phase
// routing, and the zero-timeout maintenance model — the stored links
// checked against a brute-force reference (viceroy_reference.hpp) through
// bulk builds, joins, leaves and mass departures.
#include "viceroy/viceroy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "hash/keys.hpp"
#include "util/rng.hpp"
#include "viceroy_reference.hpp"

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
    const ViceroyLinks& links = net->node_state(handles[i]).links;
    EXPECT_EQ(links[kRingSucc].node, handles[(i + 1) % handles.size()]);
    EXPECT_EQ(links[kRingPred].node,
              handles[(i + handles.size() - 1) % handles.size()]);
  }
}

TEST(ViceroyLinks, LevelRingStaysOnLevel) {
  util::Rng rng(3);
  auto net = ViceroyNetwork::build_random(128, rng);
  for (const NodeHandle h : net->node_handles()) {
    const ViceroyNode& node = net->node_state(h);
    const ViceroyLinks& links = node.links;
    if (links[kLevelNext].node != kNoNode) {
      EXPECT_EQ(net->node_state(links[kLevelNext].node).level, node.level);
      EXPECT_NE(links[kLevelNext].node, h);
    }
    if (links[kLevelPrev].node != kNoNode) {
      EXPECT_EQ(net->node_state(links[kLevelPrev].node).level, node.level);
    }
  }
}

TEST(ViceroyLinks, DownLinksGoOneLevelDeeperUpGoesShallower) {
  util::Rng rng(4);
  auto net = ViceroyNetwork::build_random(128, rng);
  for (const NodeHandle h : net->node_handles()) {
    const ViceroyNode& node = net->node_state(h);
    const ViceroyLinks& links = node.links;
    if (links[kDownLeft].node != kNoNode) {
      EXPECT_EQ(net->node_state(links[kDownLeft].node).level, node.level + 1);
    }
    if (links[kDownRight].node != kNoNode) {
      EXPECT_EQ(net->node_state(links[kDownRight].node).level,
                node.level + 1);
    }
    if (node.level == 1) {
      EXPECT_EQ(links[kUp].node, kNoNode);
    } else if (links[kUp].node != kNoNode) {
      EXPECT_LT(net->node_state(links[kUp].node).level, node.level);
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

// --------------------------------------------------------------------------
// Stored links against the reference

/// The handle of the node at `id`.
NodeHandle handle_at_id(const ViceroyNetwork& net, double id) {
  for (const NodeHandle h : net.node_handles()) {
    if (net.node_state(h).id == id) return h;
  }
  return kNoNode;
}

TEST(ViceroyStoredLinks, BulkFillMatchesReference) {
  for (const std::size_t n : {1u, 2u, 3u, 17u, 200u, 1000u}) {
    util::Rng rng(20 + n);
    auto net = ViceroyNetwork::build_random(n, rng);
    expect_links_match_reference(*net, "n = " + std::to_string(n));
  }
}

TEST(ViceroyStoredLinks, TinyNetworksGrowAndShrink) {
  ViceroyNetwork net;
  const auto check = [&net](const char* where) {
    expect_links_match_reference(net, where);
  };
  ASSERT_TRUE(net.insert(0.5, 1));  // n = 1: no links at all
  ASSERT_NO_FATAL_FAILURE(check("n = 1"));
  for (const ViceroyLink& link : net.node_state(0).links) {
    EXPECT_EQ(link.node, kNoNode);
  }
  ASSERT_TRUE(net.insert(0.25, 1));  // n = 2: each is the other's pred/succ
  ASSERT_NO_FATAL_FAILURE(check("n = 2"));
  EXPECT_EQ(net.node_state(0).links[kRingPred].node, 1u);
  EXPECT_EQ(net.node_state(0).links[kRingSucc].node, 1u);
  EXPECT_EQ(net.node_state(0).links[kLevelNext].node, 1u);
  ASSERT_TRUE(net.insert(0.75, 2));  // n = 3, a second level
  ASSERT_NO_FATAL_FAILURE(check("n = 3"));
  net.leave(0);
  ASSERT_NO_FATAL_FAILURE(check("n = 2 after a leave"));
  net.leave(2);
  ASSERT_NO_FATAL_FAILURE(check("n = 1 after a leave"));
  EXPECT_EQ(net.max_level(), 1);
}

TEST(ViceroyStoredLinks, LevelsOpenTrimAndEmpty) {
  ViceroyNetwork net;
  const auto check = [&net](const char* where) {
    expect_links_match_reference(net, where);
  };
  for (const double id : {0.1, 0.4, 0.7}) ASSERT_TRUE(net.insert(id, 1));
  for (const double id : {0.2, 0.8}) ASSERT_TRUE(net.insert(id, 2));
  ASSERT_NO_FATAL_FAILURE(check("two levels"));

  // A join that opens a new top level: every level-2 node's down links
  // now reach it.
  ASSERT_TRUE(net.insert(0.5, 3));
  const NodeHandle top = handle_at_id(net, 0.5);
  EXPECT_EQ(net.max_level(), 3);
  ASSERT_NO_FATAL_FAILURE(check("new top level"));
  EXPECT_EQ(net.node_state(handle_at_id(net, 0.2)).links[kDownLeft].node, top);
  EXPECT_EQ(net.node_state(handle_at_id(net, 0.8)).links[kDownRight].node,
            top);

  // A new top level past an empty one: its up link skips level 4.
  ASSERT_TRUE(net.insert(0.6, 5));
  const NodeHandle deep = handle_at_id(net, 0.6);
  EXPECT_EQ(net.max_level(), 5);
  ASSERT_NO_FATAL_FAILURE(check("top level past an empty level"));
  EXPECT_EQ(net.node_state(deep).links[kUp].node, top);

  // A leave that empties the top level trims the empty level below it too.
  net.leave(deep);
  EXPECT_EQ(net.max_level(), 3);
  ASSERT_NO_FATAL_FAILURE(check("top level emptied"));

  // A leave that empties a middle level: level 3's up links skip to level
  // 1, and level 1's down links into level 2 vanish.
  ASSERT_TRUE(net.insert(0.3, 3));
  net.leave(handle_at_id(net, 0.2));
  ASSERT_NO_FATAL_FAILURE(check("level 2 down to one node"));
  net.leave(handle_at_id(net, 0.8));
  EXPECT_EQ(net.max_level(), 3);
  ASSERT_NO_FATAL_FAILURE(check("middle level emptied"));
  for (const NodeHandle h : net.node_handles()) {
    const ViceroyNode& node = net.node_state(h);
    if (node.level == 1) {
      EXPECT_EQ(node.links[kDownLeft].node, kNoNode) << h;
      EXPECT_EQ(node.links[kDownRight].node, kNoNode) << h;
    } else {
      ASSERT_NE(node.links[kUp].node, kNoNode) << h;
      EXPECT_EQ(net.node_state(node.links[kUp].node).level, 1) << h;
    }
  }

  // Refilling the middle level takes those links back.
  ASSERT_TRUE(net.insert(0.9, 2));
  ASSERT_NO_FATAL_FAILURE(check("middle level refilled"));
}

TEST(ViceroyStoredLinks, DownRightAnchorsWrapAndRound) {
  // Level-1 ids past 0.5 aim their down-right links past 1.0; ids with
  // low bits set make id + 1/2 round, so level-2 nodes sit exactly on, just
  // below and just above those rounded anchors.
  ViceroyNetwork net;
  const auto check = [&net](const char* where) {
    expect_links_match_reference(net, where);
  };
  std::vector<double> anchors;
  for (const double base : {0.3, 0.55, 0.7, 0.95}) {
    const double id = std::nextafter(base, 1.0);
    ASSERT_TRUE(net.insert(id, 1));
    const double anchor = id + 0.5;
    anchors.push_back(anchor >= 1.0 ? anchor - 1.0 : anchor);
  }
  ASSERT_NO_FATAL_FAILURE(check("level 1 only"));
  util::Rng rng(21);
  std::vector<NodeHandle> joined;
  for (const double anchor : anchors) {
    for (const double id : {std::nextafter(anchor, 0.0), anchor,
                            std::nextafter(anchor, 1.0)}) {
      if (net.insert(id, 2)) joined.push_back(handle_at_id(net, id));
      ASSERT_NO_FATAL_FAILURE(check("join near an anchor"));
    }
  }
  while (!joined.empty()) {
    const std::size_t pick = rng.below(joined.size());
    net.leave(joined[pick]);
    joined.erase(joined.begin() + static_cast<std::ptrdiff_t>(pick));
    ASSERT_NO_FATAL_FAILURE(check("leave near an anchor"));
  }
}

TEST(ViceroyStoredLinks, ChurnKeepsEveryLinkExact) {
  util::Rng rng(22);
  auto net = ViceroyNetwork::build_random(60, rng);
  for (int op = 0; op < 200; ++op) {
    if (rng.chance(0.5) && net->node_count() > 2) {
      net->leave(net->random_node(rng));
    } else {
      net->join(rng());
    }
    ASSERT_NO_FATAL_FAILURE(
        expect_links_match_reference(*net, "op " + std::to_string(op)));
  }
}

TEST(ViceroyStoredLinks, MassDeparturesKeepEveryLinkExact) {
  util::Rng rng(23);
  auto net = ViceroyNetwork::build_random(300, rng);
  net->fail_simultaneously(0.3, rng);
  expect_links_match_reference(*net, "after fail_simultaneously");
  net->fail_ungraceful(0.3, rng);
  EXPECT_EQ(net->last_departure_semantics(),
            dht::DepartureSemantics::kGraceful);
  expect_links_match_reference(*net, "after fail_ungraceful");
  net->fail_simultaneously(0.99, rng);  // down to a handful of nodes
  expect_links_match_reference(*net, "after a near-total departure");
}

TEST(ViceroyMaintenanceCharge, EachEventChargesSevenPlusItsReferencers) {
  util::Rng rng(24);
  auto net = ViceroyNetwork::build_random(120, rng);
  net->enable_maintenance_accounting(true);
  for (int op = 0; op < 150; ++op) {
    const std::uint64_t before = net->maintenance_metrics().total();
    std::uint64_t expected = 0;
    if (rng.chance(0.5) && net->node_count() > 2) {
      const NodeHandle victim = net->random_node(rng);
      expected = 7 + reference_referencers(*net, victim);
      net->leave(victim);
    } else {
      const NodeHandle joined = net->join(rng());
      if (joined == kNoNode) continue;
      expected = 7 + reference_referencers(*net, joined);
    }
    ASSERT_EQ(net->maintenance_metrics().total() - before, expected)
        << "op " << op;
  }
  // Mass departures charge nothing.
  net->reset_maintenance();
  net->fail_simultaneously(0.3, rng);
  EXPECT_EQ(net->maintenance_metrics().total(), 0u);
}

}  // namespace
}  // namespace cycloid::viceroy
