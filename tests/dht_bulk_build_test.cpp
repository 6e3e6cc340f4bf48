// Bulk construction ≡ incremental construction, for all seven overlays.
//
// The builders now bracket their insert loops with begin_bulk/finish_bulk:
// per-insert routing-table work is deferred and one stabilize pass over the
// final membership computes every node's state (DESIGN.md §9). The contract
// is byte-identical final state — these tests rebuild each overlay through
// the pre-bulk incremental path (eager insert loop with the exact same RNG
// draw sequence, then a sequential stabilize_all) and compare every node's
// routing state field by field against the factory's bulk build, at 1 and
// N stabilize threads. Lookup behaviour is pinned too: identical sink
// totals over the same workload.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "can/can.hpp"
#include "chord/chord.hpp"
#include "core/network.hpp"
#include "dht/network.hpp"
#include "exp/overlays.hpp"
#include "exp/workloads.hpp"
#include "koorde/koorde.hpp"
#include "pastry/pastry.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "viceroy/viceroy.hpp"

#include "overlay_state_compare.hpp"

namespace cycloid {
namespace {

using exp::OverlayKind;

constexpr int kDim = 8;           // 2048-position Cycloid space, bits = 11
constexpr std::size_t kNodes = 300;
constexpr std::uint64_t kSeed = 42;
constexpr int kThreads = 4;

/// The exact pre-bulk builder loops: eager insert (tables computed per
/// insert) followed by one sequential stabilize pass. RNG draw sequences
/// mirror the bulk builders, so both place the same identifiers.
std::unique_ptr<dht::DhtNetwork> build_incremental(OverlayKind kind) {
  const std::uint64_t space = static_cast<std::uint64_t>(kDim) * (1ULL << kDim);
  const int bits = util::ceil_log2(space);
  util::Rng rng(kSeed);
  switch (kind) {
    case OverlayKind::kCycloid7:
    case OverlayKind::kCycloid11: {
      const int leaf_width = kind == OverlayKind::kCycloid7 ? 1 : 2;
      auto net = std::make_unique<ccc::CycloidNetwork>(kDim, leaf_width);
      while (net->node_count() < kNodes) {
        const std::uint64_t pos = rng.below(net->space().size());
        net->insert(net->space().from_ring_position(pos));
      }
      net->stabilize_all();
      return net;
    }
    case OverlayKind::kViceroy: {
      auto net = std::make_unique<viceroy::ViceroyNetwork>();
      const int max_level = std::max(1, util::ceil_log2(kNodes));
      while (net->node_count() < kNodes) {
        const double id = rng.uniform01();
        const int level = 1 + static_cast<int>(rng.below(
                                  static_cast<std::uint64_t>(max_level)));
        net->insert(id, level);
      }
      return net;
    }
    case OverlayKind::kChord: {
      auto net = std::make_unique<chord::ChordNetwork>(bits);
      while (net->node_count() < kNodes) net->insert(rng.below(1ULL << bits));
      net->stabilize_all();
      return net;
    }
    case OverlayKind::kKoorde: {
      auto net = std::make_unique<koorde::KoordeNetwork>(bits);
      while (net->node_count() < kNodes) net->insert(rng.below(1ULL << bits));
      net->stabilize_all();
      return net;
    }
    case OverlayKind::kPastry: {
      auto net = std::make_unique<pastry::PastryNetwork>(bits);
      while (net->node_count() < kNodes) {
        net->insert(rng.below(1ULL << bits), rng.uniform01(), rng.uniform01());
      }
      net->stabilize_all();
      return net;
    }
    case OverlayKind::kCan: {
      auto net = std::make_unique<can::CanNetwork>();
      while (net->node_count() < kNodes) {
        const double x = rng.uniform01();
        net->join_at(can::Point{x, rng.uniform01()});
      }
      return net;
    }
  }
  return nullptr;
}

class BulkBuildTest : public ::testing::TestWithParam<OverlayKind> {};

INSTANTIATE_TEST_SUITE_P(AllOverlays, BulkBuildTest,
                         ::testing::ValuesIn(exp::extended_overlays()),
                         [](const auto& info) {
                           std::string label = exp::overlay_label(info.param);
                           for (char& c : label) {
                             if (c == '-') c = '_';
                           }
                           return label;
                         });

TEST_P(BulkBuildTest, BulkMatchesIncrementalBuild) {
  const auto incremental = build_incremental(GetParam());
  const auto bulk = exp::make_sparse_overlay(GetParam(), kDim, kNodes, kSeed,
                                             /*threads=*/1);
  ASSERT_NE(incremental, nullptr);
  expect_same_state(GetParam(), *incremental, *bulk);
}

TEST_P(BulkBuildTest, StateIsThreadCountIndependent) {
  const auto one = exp::make_sparse_overlay(GetParam(), kDim, kNodes, kSeed,
                                            /*threads=*/1);
  const auto many = exp::make_sparse_overlay(GetParam(), kDim, kNodes, kSeed,
                                             kThreads);
  expect_same_state(GetParam(), *one, *many);
}

TEST_P(BulkBuildTest, LookupTotalsMatchIncrementalBuild) {
  const auto incremental = build_incremental(GetParam());
  const auto bulk = exp::make_sparse_overlay(GetParam(), kDim, kNodes, kSeed,
                                             kThreads);
  const exp::WorkloadStats a =
      exp::run_lookup_batch(*incremental, 3000, 1234, /*threads=*/2);
  const exp::WorkloadStats b =
      exp::run_lookup_batch(*bulk, 3000, 1234, /*threads=*/2);
  EXPECT_EQ(a.metrics.hops, b.metrics.hops);
  EXPECT_EQ(a.metrics.timeouts, b.metrics.timeouts);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.incorrect, b.incorrect);
  EXPECT_EQ(a.metrics.phase_hops, b.metrics.phase_hops);
}

// --------------------------------------------------------------------------
// Deferral semantics

TEST(BulkModeTest, InsertDuringBulkDefersTableComputation) {
  chord::ChordNetwork net(8);
  net.begin_bulk();
  ASSERT_TRUE(net.bulk_building());
  ASSERT_TRUE(net.insert(5));
  ASSERT_TRUE(net.insert(200));
  // No state computed yet — membership only.
  EXPECT_EQ(net.node_state(5).successors,
            (std::array<dht::NodeHandle, 3>{dht::kNoNode, dht::kNoNode,
                                            dht::kNoNode}));
  EXPECT_EQ(net.node_state(5).fingers.size(), 0u);
  EXPECT_EQ(net.node_state(200).predecessor, dht::kNoNode);
  net.finish_bulk(/*threads=*/2);
  EXPECT_FALSE(net.bulk_building());
  EXPECT_EQ(net.node_state(5).successors,
            (std::array<dht::NodeHandle, 3>{200, 5, 200}));
  EXPECT_EQ(net.node_state(5).fingers.size(), 8u);
  EXPECT_EQ(net.node_state(200).predecessor, 5u);
}

TEST(BulkModeTest, CycloidInsertDuringBulkDefersLeafSets) {
  ccc::CycloidNetwork net(5);
  net.begin_bulk();
  ASSERT_TRUE(net.insert(ccc::CccId{1, 3}));
  ASSERT_TRUE(net.insert(ccc::CccId{2, 9}));
  const dht::NodeHandle h = ccc::CycloidNetwork::handle_of(ccc::CccId{1, 3});
  EXPECT_TRUE(net.node_state(h).inside_pred().empty());
  EXPECT_TRUE(net.node_state(h).outside_succ().empty());
  net.finish_bulk();
  EXPECT_FALSE(net.node_state(h).inside_pred().empty());
  EXPECT_FALSE(net.node_state(h).outside_succ().empty());
}

TEST(BulkModeDeathTest, FinishWithoutBeginTraps) {
  chord::ChordNetwork net(8);
  EXPECT_DEATH(net.finish_bulk(), "Precondition");
}

TEST(BulkModeDeathTest, NestedBeginTraps) {
  chord::ChordNetwork net(8);
  net.begin_bulk();
  EXPECT_DEATH(net.begin_bulk(), "Precondition");
}

// --------------------------------------------------------------------------
// node_handles registry contract

TEST_P(BulkBuildTest, NodeHandlesStayInIdentifierOrderAcrossMembership) {
  const auto net = exp::make_sparse_overlay(GetParam(), kDim, kNodes, kSeed);
  util::Rng rng(7);

  const auto check = [&](const char* when) {
    const std::vector<dht::NodeHandle> handles = net->node_handles();
    ASSERT_EQ(handles.size(), net->node_count()) << when;
    for (const dht::NodeHandle h : handles) {
      EXPECT_TRUE(net->contains(h)) << when;
    }
    if (GetParam() == OverlayKind::kViceroy) {
      // Handles are join serials; the contract is ascending ring id.
      const auto& v = dynamic_cast<const viceroy::ViceroyNetwork&>(*net);
      for (std::size_t i = 1; i < handles.size(); ++i) {
        EXPECT_LT(v.node_state(handles[i - 1]).id,
                  v.node_state(handles[i]).id)
            << when;
      }
    } else {
      for (std::size_t i = 1; i < handles.size(); ++i) {
        EXPECT_LT(handles[i - 1], handles[i]) << when;
      }
    }
  };

  check("after build");
  for (int round = 0; round < 5; ++round) {
    net->leave(net->random_node(rng));
    net->join(0x5eed0000 + static_cast<std::uint64_t>(round));
  }
  check("after churn");
}

TEST(NodeHandlesTest, CycloidHandlesFollowRingOrder) {
  util::Rng rng(kSeed);
  const auto net = ccc::CycloidNetwork::build_random(kDim, kNodes, rng);
  const std::vector<dht::NodeHandle> handles = net->node_handles();
  // Ascending handle order must equal ascending ring-position order — the
  // documented "large cycle" order the experiment drivers rely on.
  std::uint64_t prev_pos = 0;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const std::uint64_t pos =
        net->space().ring_position(ccc::CycloidNetwork::id_of(handles[i]));
    if (i > 0) {
      EXPECT_GT(pos, prev_pos);
    }
    prev_pos = pos;
  }
}

}  // namespace
}  // namespace cycloid
