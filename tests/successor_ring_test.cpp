// Tests for dht::SuccessorRing, the successor ring Chord and Koorde share:
// the predecessor and successor list on every small ring size, the reach
// of the eager join and leave repair, and what that repair leaves alone.
#include "dht/successor_ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "chord/chord.hpp"
#include "koorde/koorde.hpp"
#include "util/rng.hpp"

namespace cycloid {
namespace {

using dht::NodeHandle;

template <typename Net>
class SuccessorRingTest : public ::testing::Test {};

using RingOverlays =
    ::testing::Types<chord::ChordNetwork, koorde::KoordeNetwork>;
TYPED_TEST_SUITE(SuccessorRingTest, RingOverlays);

/// Every member's ring links equal a brute-force recompute: each successor
/// is found by one successor search past the previous one, and the
/// predecessor is the member whose next member is this one.
template <typename Net>
void expect_ring_links_exact(const Net& net, const std::string& where) {
  const std::vector<NodeHandle> handles = net.node_handles();
  const auto next_after = [&](std::uint64_t id) {
    return net.owner_of((id + 1) % net.space_size());
  };
  for (const NodeHandle h : handles) {
    const auto& node = net.node_state(h);
    ASSERT_EQ(node.successors.size(), 3u) << where;
    std::uint64_t walk = node.id;
    for (const NodeHandle successor : node.successors) {
      walk = next_after(walk);
      EXPECT_EQ(successor, walk) << where << " node " << h;
    }
    const auto before = std::find_if(
        handles.begin(), handles.end(),
        [&](NodeHandle p) { return next_after(p) == node.id; });
    ASSERT_NE(before, handles.end()) << where;
    EXPECT_EQ(node.predecessor, *before) << where << " node " << h;
  }
}

TYPED_TEST(SuccessorRingTest, BulkBuildListsAreExactOnEveryRingSize) {
  // One to six members wrap the three-entry list up to three times.
  for (std::size_t n = 1; n <= 6; ++n) {
    util::Rng rng(40 + n);
    auto net = TypeParam::build_random(6, n, rng);
    ASSERT_TRUE(net->check_invariants());
    expect_ring_links_exact(*net, "n=" + std::to_string(n));
  }
}

TYPED_TEST(SuccessorRingTest, JoinsAndLeavesRepairEveryRingLinkAtOnce) {
  // Joins and graceful leaves relink the successor_list_length + 1 members
  // before the event and tell the member after it its predecessor; on
  // rings of any size that leaves no ring link stale.
  TypeParam net(6);
  util::Rng rng(7);
  for (int op = 0; op < 120; ++op) {
    if (net.node_count() < 2 || (net.node_count() < 12 && rng.chance(0.6))) {
      net.insert(rng.below(net.space_size()));
    } else {
      net.leave(net.random_node(rng));
    }
    const std::string where = "op " + std::to_string(op);
    ASSERT_TRUE(net.check_invariants()) << where;
    expect_ring_links_exact(net, where);
  }
}

TYPED_TEST(SuccessorRingTest, JoinTellsTheNextMemberOnlyItsPredecessor) {
  // A vanish leaves its predecessor's successor list naming it. A join just
  // before that predecessor relinks the members before the joiner and gives
  // the predecessor its new predecessor, but not a new successor list: the
  // stale entry stays until a refresh.
  util::Rng rng(3);
  auto net = TypeParam::build_random(10, 64, rng);
  const std::vector<NodeHandle> handles = net->node_handles();
  std::size_t i = 1;
  while (handles[i] - handles[i - 1] < 2) ++i;  // room for a joiner
  const NodeHandle next = handles[i];
  const NodeHandle vanished = net->node_state(next).successors.front();
  net->fail_ungraceful(vanished);

  const NodeHandle joiner = next - 1;
  ASSERT_TRUE(net->insert(joiner));
  EXPECT_EQ(net->node_state(next).predecessor, joiner);
  EXPECT_EQ(net->node_state(next).successors.front(), vanished);
  ASSERT_TRUE(net->check_invariants());

  net->stabilize_one(next);
  EXPECT_NE(net->node_state(next).successors.front(), vanished);
}

}  // namespace
}  // namespace cycloid
