// Structural tests: routing tables and leaf sets of Cycloid nodes match the
// definitions of paper Sec. 3.1 (including the Table 2 example), in complete
// and in random sparse networks.
#include <gtest/gtest.h>

#include <set>

#include "core/network.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace cycloid::ccc {
namespace {

using dht::kNoNode;
using dht::NodeHandle;

TEST(Table2Example, RoutingStateOfNode4_10110110) {
  // Paper Table 2: the routing state of node (4, 10110110) in a complete
  // eight-dimensional Cycloid.
  auto net = CycloidNetwork::build_complete(8);
  const NodeHandle h = CycloidNetwork::handle_of(CccId{4, 0b10110110});
  const CycloidNode& node = net->node_state(h);

  // Cubical neighbor: (3, 1010xxxx) — cyclic index 3, bit 4 flipped. With
  // every identifier live, the closest match keeps the node's own suffix.
  ASSERT_NE(node.cubical_neighbor, kNoNode);
  const CccId cube = CycloidNetwork::id_of(node.cubical_neighbor);
  EXPECT_EQ(cube.cyclic, 3u);
  EXPECT_EQ(cube.cubical >> 4, 0b1010u);
  EXPECT_EQ(cube.cubical, 0b10100110u);

  // Cyclic neighbors: the first larger/smaller cubical indices at cyclic
  // index 3; in a complete network both are the node's own cycle.
  ASSERT_NE(node.cyclic_larger, kNoNode);
  ASSERT_NE(node.cyclic_smaller, kNoNode);
  EXPECT_EQ(CycloidNetwork::id_of(node.cyclic_larger),
            (CccId{3, 0b10110110}));
  EXPECT_EQ(CycloidNetwork::id_of(node.cyclic_smaller),
            (CccId{3, 0b10110110}));

  // Inside leaf set: predecessor (3, 10110110) and successor (5, 10110110).
  ASSERT_EQ(node.inside_pred().size(), 1u);
  ASSERT_EQ(node.inside_succ().size(), 1u);
  EXPECT_EQ(CycloidNetwork::id_of(node.inside_pred()[0]),
            (CccId{3, 0b10110110}));
  EXPECT_EQ(CycloidNetwork::id_of(node.inside_succ()[0]),
            (CccId{5, 0b10110110}));

  // Outside leaf set: primary nodes (cyclic index 7) of the preceding and
  // succeeding cycles.
  ASSERT_EQ(node.outside_pred().size(), 1u);
  ASSERT_EQ(node.outside_succ().size(), 1u);
  EXPECT_EQ(CycloidNetwork::id_of(node.outside_pred()[0]),
            (CccId{7, 0b10110101}));
  EXPECT_EQ(CycloidNetwork::id_of(node.outside_succ()[0]),
            (CccId{7, 0b10110111}));
}

TEST(CompleteNetwork, MatchesCccDegreeStructure) {
  // "the network will be the traditional cube-connected cycles if all nodes
  // are alive" — in the complete network every node with k >= 1 has a
  // cubical neighbor whose cubical index differs in exactly bit k.
  auto net = CycloidNetwork::build_complete(5);
  for (const NodeHandle h : net->node_handles()) {
    const CycloidNode& node = net->node_state(h);
    const auto k = node.id.cyclic;
    if (k == 0) {
      EXPECT_EQ(node.cubical_neighbor, kNoNode);
      EXPECT_EQ(node.cyclic_larger, kNoNode);
      EXPECT_EQ(node.cyclic_smaller, kNoNode);
      continue;
    }
    ASSERT_NE(node.cubical_neighbor, kNoNode);
    const CccId cube = CycloidNetwork::id_of(node.cubical_neighbor);
    EXPECT_EQ(cube.cyclic, k - 1);
    EXPECT_EQ(cube.cubical,
              util::flip_bit(node.id.cubical, static_cast<int>(k)));
  }
}

class SparseStructureTest : public ::testing::TestWithParam<int> {};

TEST_P(SparseStructureTest, RoutingTableInvariants) {
  const int d = GetParam();
  const CccSpace space(d);
  util::Rng rng(d * 17);
  const std::size_t count = std::max<std::size_t>(4, space.size() / 3);
  auto net = CycloidNetwork::build_random(d, count, rng);

  // Index nodes by level for brute-force verification.
  std::vector<std::set<std::uint64_t>> by_level(static_cast<std::size_t>(d));
  for (const NodeHandle h : net->node_handles()) {
    const CccId id = CycloidNetwork::id_of(h);
    by_level[id.cyclic].insert(id.cubical);
  }

  for (const NodeHandle h : net->node_handles()) {
    const CycloidNode& node = net->node_state(h);
    const auto k = node.id.cyclic;
    if (k == 0) {
      EXPECT_EQ(node.cubical_neighbor, kNoNode);
      continue;
    }
    const auto& level = by_level[k - 1];

    // Cubical neighbor: matches the flipped-bit-k pattern.
    if (node.cubical_neighbor != kNoNode) {
      const CccId cube = CycloidNetwork::id_of(node.cubical_neighbor);
      EXPECT_EQ(cube.cyclic, k - 1);
      const std::uint64_t window = 1ULL << k;
      const std::uint64_t base =
          util::flip_bit(node.id.cubical, static_cast<int>(k)) & ~(window - 1);
      EXPECT_GE(cube.cubical, base);
      EXPECT_LT(cube.cubical, base + window);
    } else {
      // No participant matches the pattern.
      const std::uint64_t window = 1ULL << k;
      const std::uint64_t base =
          util::flip_bit(node.id.cubical, static_cast<int>(k)) & ~(window - 1);
      const auto it = level.lower_bound(base);
      EXPECT_TRUE(it == level.end() || *it >= base + window);
    }

    // Cyclic neighbors: exactly the first larger / smaller cubical index at
    // level k-1 (no wraparound, per the paper's min/max formulas).
    const auto larger_it = level.lower_bound(node.id.cubical);
    if (larger_it != level.end()) {
      ASSERT_NE(node.cyclic_larger, kNoNode);
      const CccId id = CycloidNetwork::id_of(node.cyclic_larger);
      EXPECT_EQ(id.cyclic, k - 1);
      EXPECT_EQ(id.cubical, *larger_it);
    } else {
      EXPECT_EQ(node.cyclic_larger, kNoNode);
    }
    const auto smaller_it = level.upper_bound(node.id.cubical);
    if (smaller_it != level.begin()) {
      ASSERT_NE(node.cyclic_smaller, kNoNode);
      const CccId id = CycloidNetwork::id_of(node.cyclic_smaller);
      EXPECT_EQ(id.cyclic, k - 1);
      EXPECT_EQ(id.cubical, *std::prev(smaller_it));
    } else {
      EXPECT_EQ(node.cyclic_smaller, kNoNode);
    }
  }
}

TEST_P(SparseStructureTest, LeafSetInvariants) {
  const int d = GetParam();
  const CccSpace space(d);
  util::Rng rng(d * 31);
  const std::size_t count = std::max<std::size_t>(3, space.size() / 4);
  auto net = CycloidNetwork::build_random(d, count, rng);

  // Collect populated cycles and their members.
  std::map<std::uint64_t, std::set<std::uint32_t>> cycles;
  for (const NodeHandle h : net->node_handles()) {
    const CccId id = CycloidNetwork::id_of(h);
    cycles[id.cubical].insert(id.cyclic);
  }
  std::vector<std::uint64_t> cubicals;
  for (const auto& [c, members] : cycles) cubicals.push_back(c);

  const auto cycle_primary = [&](std::uint64_t cubical) {
    return CccId{*cycles.at(cubical).rbegin(), cubical};
  };

  for (const NodeHandle h : net->node_handles()) {
    const CycloidNode& node = net->node_state(h);
    const auto& members = cycles.at(node.id.cubical);

    // Inside leaf set: circular predecessor/successor within the cycle.
    ASSERT_EQ(node.inside_pred().size(), 1u);
    ASSERT_EQ(node.inside_succ().size(), 1u);
    auto self = members.find(node.id.cyclic);
    ASSERT_NE(self, members.end());
    auto succ = std::next(self) == members.end() ? members.begin()
                                                 : std::next(self);
    auto pred = self == members.begin() ? std::prev(members.end())
                                        : std::prev(self);
    EXPECT_EQ(CycloidNetwork::id_of(node.inside_succ()[0]),
              (CccId{*succ, node.id.cubical}));
    EXPECT_EQ(CycloidNetwork::id_of(node.inside_pred()[0]),
              (CccId{*pred, node.id.cubical}));

    // Outside leaf set: primary of adjacent populated cycles (wrapping).
    const auto pos = std::lower_bound(cubicals.begin(), cubicals.end(),
                                      node.id.cubical);
    ASSERT_NE(pos, cubicals.end());
    const std::uint64_t next_cycle = std::next(pos) == cubicals.end()
                                         ? cubicals.front()
                                         : *std::next(pos);
    const std::uint64_t prev_cycle =
        pos == cubicals.begin() ? cubicals.back() : *std::prev(pos);
    ASSERT_EQ(node.outside_pred().size(), 1u);
    ASSERT_EQ(node.outside_succ().size(), 1u);
    EXPECT_EQ(CycloidNetwork::id_of(node.outside_succ()[0]),
              cycle_primary(next_cycle));
    EXPECT_EQ(CycloidNetwork::id_of(node.outside_pred()[0]),
              cycle_primary(prev_cycle));
  }
}

TEST(LeafWidth, ElevenEntryNodeHasTwoOfEach) {
  auto net = CycloidNetwork::build_complete(4, 2);
  for (const NodeHandle h : net->node_handles()) {
    const CycloidNode& node = net->node_state(h);
    EXPECT_EQ(node.inside_pred().size(), 2u);
    EXPECT_EQ(node.inside_succ().size(), 2u);
    EXPECT_EQ(node.outside_pred().size(), 2u);
    EXPECT_EQ(node.outside_succ().size(), 2u);
  }
  EXPECT_EQ(net->name(), "Cycloid-11");
}

TEST(SingletonNetwork, LeafSetsPointToSelf) {
  CycloidNetwork net(4);
  ASSERT_TRUE(net.insert(CccId{2, 5}));
  const NodeHandle h = CycloidNetwork::handle_of(CccId{2, 5});
  const CycloidNode& node = net.node_state(h);
  // "two nodes in X's inside leaf set are X itself" (paper Sec. 3.3.1).
  EXPECT_EQ(node.inside_pred()[0], h);
  EXPECT_EQ(node.inside_succ()[0], h);
  EXPECT_EQ(node.outside_pred()[0], h);
  EXPECT_EQ(node.outside_succ()[0], h);
}

TEST(SingleCycleNetwork, OutsideLeafSetWrapsToOwnCycle) {
  CycloidNetwork net(4);
  ASSERT_TRUE(net.insert(CccId{0, 9}));
  ASSERT_TRUE(net.insert(CccId{2, 9}));
  ASSERT_TRUE(net.insert(CccId{3, 9}));
  const CycloidNode& node = net.node_state(CycloidNetwork::handle_of(CccId{0, 9}));
  // Primary of the only cycle is (3, 9).
  EXPECT_EQ(CycloidNetwork::id_of(node.outside_pred()[0]), (CccId{3, 9}));
  EXPECT_EQ(CycloidNetwork::id_of(node.outside_succ()[0]), (CccId{3, 9}));
  // Inside leaf set wraps within the cycle.
  EXPECT_EQ(CycloidNetwork::id_of(node.inside_pred()[0]), (CccId{3, 9}));
  EXPECT_EQ(CycloidNetwork::id_of(node.inside_succ()[0]), (CccId{2, 9}));
}

TEST(HandleCodec, RoundTrips) {
  for (std::uint32_t k = 0; k < 8; ++k) {
    for (std::uint64_t a = 0; a < 256; a += 17) {
      const CccId id{k, a};
      EXPECT_EQ(CycloidNetwork::id_of(CycloidNetwork::handle_of(id)), id);
    }
  }
}

TEST(Insert, RejectsDuplicates) {
  CycloidNetwork net(4);
  EXPECT_TRUE(net.insert(CccId{1, 2}));
  EXPECT_FALSE(net.insert(CccId{1, 2}));
  EXPECT_EQ(net.node_count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Dimensions, SparseStructureTest,
                         ::testing::Values(3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace cycloid::ccc
