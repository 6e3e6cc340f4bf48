// Tests for the maintenance-overhead accounting (the fifth DHT metric of
// paper Sec. 4) across the overlays — now the per-cause counters owned by
// dht::DhtNetwork. The golden section pins each overlay's per-cause totals
// over a fixed join/leave/fail/stabilize script to the values the
// pre-engine per-overlay counters produced; the parallel section pins
// stabilize_all(1) ≡ stabilize_all(N): state field by field, and the
// totals.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>

#include "core/network.hpp"
#include "dht/maintenance.hpp"
#include "exp/overlays.hpp"
#include "overlay_state_compare.hpp"
#include "util/rng.hpp"
#include "viceroy/viceroy.hpp"

namespace cycloid::exp {
namespace {

TEST(Maintenance, JoinAndLeaveCostStateUpdates) {
  for (const OverlayKind kind :
       {OverlayKind::kCycloid7, OverlayKind::kChord, OverlayKind::kKoorde,
        OverlayKind::kPastry}) {
    auto net = make_sparse_overlay(kind, 7, 300, 1);
    util::Rng rng(2);
    net->reset_maintenance();
    EXPECT_EQ(net->maintenance_metrics().total(), 0u);

    dht::NodeHandle joined = dht::kNoNode;
    std::uint64_t seed = 1;
    while (joined == dht::kNoNode) joined = net->join(seed++);
    const std::uint64_t after_join = net->maintenance_metrics().total();
    EXPECT_GT(after_join, 0u) << overlay_label(kind);
    // A single join touches a bounded neighbourhood, not the network.
    EXPECT_LT(after_join, 64u) << overlay_label(kind);

    net->leave(joined);
    EXPECT_GT(net->maintenance_metrics().total(), after_join)
        << overlay_label(kind);
  }
}

TEST(Maintenance, StableStabilizationIsCheap) {
  // Re-stabilizing an already-stable network changes (almost) nothing, so
  // the change-detected update count stays near zero.
  auto net = make_sparse_overlay(OverlayKind::kCycloid7, 7, 400, 3);
  net->stabilize_all();  // reach fixpoint
  net->reset_maintenance();
  net->stabilize_all();
  EXPECT_EQ(net->maintenance_metrics().total(), 0u);
}

TEST(Maintenance, StabilizationAfterDamageIsExpensive) {
  auto net = make_sparse_overlay(OverlayKind::kCycloid7, 7, 400, 4);
  util::Rng rng(5);
  net->fail_simultaneously(0.3, rng);
  net->reset_maintenance();
  net->stabilize_all();
  // Many routing tables reference departed nodes and must change.
  EXPECT_GT(net->maintenance_metrics().total(), net->node_count() / 4);
}

TEST(Maintenance, ViceroyAccountingIsOptIn) {
  util::Rng rng(6);
  auto net = viceroy::ViceroyNetwork::build_random(200, rng);
  net->reset_maintenance();
  net->join(12345);
  EXPECT_EQ(net->maintenance_metrics().total(), 0u);  // accounting disabled

  net->enable_maintenance_accounting(true);
  dht::NodeHandle joined = dht::kNoNode;
  std::uint64_t seed = 999;
  while (joined == dht::kNoNode) joined = net->join(seed++);
  const std::uint64_t after_join = net->maintenance_metrics().total();
  // 7 outgoing links plus at least the ring neighbours' incoming repairs.
  EXPECT_GE(after_join, 9u);

  net->leave(joined);
  EXPECT_GT(net->maintenance_metrics().total(), after_join);
}

TEST(Maintenance, ViceroyEventCostExceedsChords) {
  // The paper's conclusion: Viceroy handles membership change "at a high
  // cost for connectivity maintenance" relative to the others.
  util::Rng rng(7);
  auto viceroy_net = viceroy::ViceroyNetwork::build_random(400, rng);
  viceroy_net->enable_maintenance_accounting(true);
  auto chord_net = make_sparse_overlay(OverlayKind::kChord, 7, 400, 8);

  const auto cost_per_leave = [&](dht::DhtNetwork& net) {
    util::Rng r(9);
    net.reset_maintenance();
    for (int i = 0; i < 40; ++i) net.leave(net.random_node(r));
    return static_cast<double>(net.maintenance_metrics().total()) / 40.0;
  };
  EXPECT_GT(cost_per_leave(*viceroy_net), cost_per_leave(*chord_net));
}

// --------------------------------------------------------------------------
// Golden per-cause totals
//
// A fixed script — 20 joins, 20 targeted leaves, one graceful mass failure,
// stabilize, one ungraceful mass failure, stabilize — on each overlay. The
// `total` column is pinned to the value the pre-engine per-overlay counters
// produced for the identical script (RNG draw sequences are preserved), and
// the per-cause split both sums to it and is pinned itself, so any change
// to charge attribution shows up as a diff here.

struct GoldenBreakdown {
  OverlayKind kind;
  std::uint64_t join;
  std::uint64_t leave;
  std::uint64_t refresh;
  std::uint64_t promotion;
};

constexpr std::array<GoldenBreakdown, 7> kGoldenBreakdowns{{
    {OverlayKind::kCycloid7, 94, 184, 253, 0},    // total 531
    {OverlayKind::kCycloid11, 136, 323, 290, 0},  // total 749
    {OverlayKind::kViceroy, 257, 262, 0, 0},      // total 519
    {OverlayKind::kChord, 100, 445, 474, 0},      // total 1019
    {OverlayKind::kKoorde, 80, 166, 92, 0},       // total 338
    {OverlayKind::kPastry, 200, 343, 863, 0},     // total 1406
    {OverlayKind::kCan, 278, 546, 0, 0},          // total 824
}};

void run_golden_script(dht::DhtNetwork& net) {
  std::uint64_t seed = 1000;
  for (int i = 0; i < 20; ++i) {
    dht::NodeHandle h = dht::kNoNode;
    while (h == dht::kNoNode) h = net.join(seed++);
  }
  util::Rng leave_rng(21);
  for (int i = 0; i < 20; ++i) net.leave(net.random_node(leave_rng));
  util::Rng fail_rng(31);
  net.fail_simultaneously(0.1, fail_rng);
  net.stabilize_all();
  util::Rng vanish_rng(41);
  net.fail_ungraceful(0.1, vanish_rng);
  net.stabilize_all();
}

TEST(Maintenance, PerCauseTotalsMatchPreEngineSeedValues) {
  for (const GoldenBreakdown& golden : kGoldenBreakdowns) {
    auto net = make_sparse_overlay(golden.kind, 7, 400, 11);
    if (auto* v = dynamic_cast<viceroy::ViceroyNetwork*>(net.get())) {
      v->enable_maintenance_accounting(true);
    }
    net->reset_maintenance();
    run_golden_script(*net);

    const dht::MaintenanceBreakdown by_cause = net->maintenance_by_cause();
    const auto at = [&](dht::MaintenanceCause cause) {
      return by_cause[static_cast<std::size_t>(cause)];
    };
    const std::string label = overlay_label(golden.kind);
    EXPECT_EQ(at(dht::MaintenanceCause::kJoinRepair), golden.join) << label;
    EXPECT_EQ(at(dht::MaintenanceCause::kLeaveRepair), golden.leave) << label;
    EXPECT_EQ(at(dht::MaintenanceCause::kStabilizeRefresh), golden.refresh)
        << label;
    EXPECT_EQ(at(dht::MaintenanceCause::kLookupPromotion), golden.promotion)
        << label;

    // The per-cause counters partition the aggregate exactly.
    std::uint64_t sum = 0;
    for (const std::uint64_t count : by_cause) sum += count;
    EXPECT_EQ(sum, net->maintenance_metrics().total()) << label;
    EXPECT_EQ(sum, golden.join + golden.leave + golden.refresh +
                       golden.promotion)
        << label;
  }
}

// --------------------------------------------------------------------------
// Parallel stabilization determinism
//
// A parallel pass writes only each refreshed node's own state, and its
// maintenance charges are relaxed atomic adds whose sums do not depend on
// order: the resulting routing state AND the per-cause totals must be
// identical at any thread count. check.sh's TSan job runs this test with
// real threads.

class ParallelRunPassTest : public ::testing::TestWithParam<OverlayKind> {};

INSTANTIATE_TEST_SUITE_P(AllOverlays, ParallelRunPassTest,
                         ::testing::ValuesIn(extended_overlays()),
                         [](const auto& info) {
                           std::string label = overlay_label(info.param);
                           for (char& c : label) {
                             if (c == '-') c = '_';
                           }
                           return label;
                         });

TEST_P(ParallelRunPassTest, StateAndMetricsAreThreadCountIndependent) {
  const auto damage = [](dht::DhtNetwork& net) {
    util::Rng rng(31);
    net.fail_ungraceful(0.2, rng);
  };
  auto one = make_sparse_overlay(GetParam(), 7, 400, 11);
  auto many = make_sparse_overlay(GetParam(), 7, 400, 11);
  damage(*one);
  damage(*many);
  one->reset_maintenance();
  many->reset_maintenance();
  one->stabilize_all(/*threads=*/1);
  many->stabilize_all(/*threads=*/4);

  expect_same_state(GetParam(), *one, *many);
  const bool eager = GetParam() == OverlayKind::kViceroy ||
                     GetParam() == OverlayKind::kCan;
  if (!eager) {
    // Ungraceful damage left stale entries, so the pass must repair some.
    EXPECT_GT(one->maintenance_metrics().total(), 0u);
  }
  EXPECT_EQ(one->maintenance_by_cause(), many->maintenance_by_cause());
}

// --------------------------------------------------------------------------
// Incremental stabilization
//
// A fixed churn script — rounds of joins, targeted graceful leaves, an
// ungraceful mass failure, lookups (Koorde's lookup-learned promotions),
// and a graceful mass failure, with a stabilization drain after each batch
// — run twice: a primary network with dirty tracking draining via
// stabilize_dirty, and a shadow draining via full stabilize_all at the same
// points. The dirty hooks must enqueue every node the batch perturbed, so
// the final states must match field by field; and the incremental drain
// itself must be thread-count independent in state AND metrics.

void run_churn_script(dht::DhtNetwork& net, bool incremental, int threads) {
  const auto drain = [&] {
    if (incremental) {
      net.stabilize_dirty(threads);
    } else {
      net.stabilize_all();
    }
  };
  std::uint64_t seed = 5000;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 8; ++i) {
      dht::NodeHandle h = dht::kNoNode;
      while (h == dht::kNoNode) h = net.join(seed++);
    }
    util::Rng leave_rng(100 + round);
    for (int i = 0; i < 6; ++i) net.leave(net.random_node(leave_rng));
    drain();
    util::Rng vanish_rng(200 + round);
    net.fail_ungraceful(0.05, vanish_rng);
    // Lookups over the damaged network: identical state on both networks
    // gives identical routes, so Koorde applies identical promotions.
    util::Rng lookup_rng(300 + round);
    for (int i = 0; i < 10; ++i) {
      dht::LookupMetrics sink;
      net.lookup(net.random_node(lookup_rng), lookup_rng(), sink);
      net.absorb(sink);
    }
    drain();
    util::Rng mass_rng(400 + round);
    net.fail_simultaneously(0.05, mass_rng);
    drain();
  }
}

class IncrementalStabilizationTest
    : public ::testing::TestWithParam<OverlayKind> {};

INSTANTIATE_TEST_SUITE_P(AllOverlays, IncrementalStabilizationTest,
                         ::testing::ValuesIn(extended_overlays()),
                         [](const auto& info) {
                           std::string label = overlay_label(info.param);
                           for (char& c : label) {
                             if (c == '-') c = '_';
                           }
                           return label;
                         });

TEST_P(IncrementalStabilizationTest, MatchesFullPassOnAFixedChurnScript) {
  auto primary = make_sparse_overlay(GetParam(), 7, 400, 11);
  auto shadow = make_sparse_overlay(GetParam(), 7, 400, 11);
  primary->set_dirty_tracking(true);
  run_churn_script(*primary, /*incremental=*/true, /*threads=*/1);
  run_churn_script(*shadow, /*incremental=*/false, /*threads=*/1);

  expect_same_state(GetParam(), *primary, *shadow);
  // The drains must have skipped clean nodes (the 5% mass failures make
  // this small 400-node network churn far harder than the Fig. 12
  // workload, so the skip FRACTION is pinned elsewhere: the single-join
  // test below and bench/perf_maintenance's >90% at R = 0.5).
  EXPECT_GT(primary->nodes_skipped_clean(), 0u) << overlay_label(GetParam());
}

TEST_P(IncrementalStabilizationTest, StateAndMetricsAreThreadCountIndependent) {
  auto one = make_sparse_overlay(GetParam(), 7, 400, 11);
  auto many = make_sparse_overlay(GetParam(), 7, 400, 11);
  one->set_dirty_tracking(true);
  many->set_dirty_tracking(true);
  run_churn_script(*one, /*incremental=*/true, /*threads=*/1);
  run_churn_script(*many, /*incremental=*/true, /*threads=*/4);

  expect_same_state(GetParam(), *one, *many);
  EXPECT_EQ(one->maintenance_by_cause(), many->maintenance_by_cause());
  EXPECT_EQ(one->nodes_refreshed_dirty(), many->nodes_refreshed_dirty());
  EXPECT_EQ(one->nodes_skipped_clean(), many->nodes_skipped_clean());
}

// Same pins with the Cycloid variants built under proximity neighbour
// selection: the policy changes which cubical candidate a repair picks, not
// which nodes a membership event dirties, so the incremental drains must
// still converge to the full-pass fixpoint — at any thread count.
class ProximityIncrementalTest : public ::testing::TestWithParam<OverlayKind> {
};

INSTANTIATE_TEST_SUITE_P(
    Cycloid, ProximityIncrementalTest,
    ::testing::Values(OverlayKind::kCycloid7, OverlayKind::kCycloid11),
    [](const auto& info) {
      std::string label = overlay_label(info.param);
      for (char& c : label) {
        if (c == '-') c = '_';
      }
      return label;
    });

TEST_P(ProximityIncrementalTest, MatchesFullPassOnAFixedChurnScript) {
  auto primary = make_sparse_overlay(GetParam(), 7, 400, 11, 1,
                                     dht::NeighborSelection::kProximity);
  auto shadow = make_sparse_overlay(GetParam(), 7, 400, 11, 1,
                                    dht::NeighborSelection::kProximity);
  primary->set_dirty_tracking(true);
  run_churn_script(*primary, /*incremental=*/true, /*threads=*/1);
  run_churn_script(*shadow, /*incremental=*/false, /*threads=*/1);

  expect_same_state(GetParam(), *primary, *shadow);
  EXPECT_GT(primary->nodes_skipped_clean(), 0u) << overlay_label(GetParam());
}

TEST_P(ProximityIncrementalTest, StateAndMetricsAreThreadCountIndependent) {
  auto one = make_sparse_overlay(GetParam(), 7, 400, 11, 1,
                                 dht::NeighborSelection::kProximity);
  auto many = make_sparse_overlay(GetParam(), 7, 400, 11, 1,
                                  dht::NeighborSelection::kProximity);
  one->set_dirty_tracking(true);
  many->set_dirty_tracking(true);
  run_churn_script(*one, /*incremental=*/true, /*threads=*/1);
  run_churn_script(*many, /*incremental=*/true, /*threads=*/4);

  expect_same_state(GetParam(), *one, *many);
  EXPECT_EQ(one->maintenance_by_cause(), many->maintenance_by_cause());
  EXPECT_EQ(one->nodes_refreshed_dirty(), many->nodes_refreshed_dirty());
  EXPECT_EQ(one->nodes_skipped_clean(), many->nodes_skipped_clean());
}

TEST(IncrementalStabilization, SingleJoinDirtiesABoundedNeighborhood) {
  // Constant-degree maintenance: one join must dirty a small neighbourhood,
  // not the network — the skip counter records the avoided work.
  auto net = make_sparse_overlay(OverlayKind::kCycloid7, 7, 400, 11);
  net->set_dirty_tracking(true);
  dht::NodeHandle h = dht::kNoNode;
  std::uint64_t seed = 77;
  while (h == dht::kNoNode) h = net->join(seed++);
  EXPECT_GT(net->dirty_queue().size(), 0u);
  EXPECT_LT(net->dirty_queue().size(), 64u);
  const std::size_t n = net->node_count();
  net->stabilize_dirty();
  EXPECT_EQ(net->dirty_queue().size(), 0u);
  EXPECT_EQ(net->nodes_refreshed_dirty() + net->nodes_skipped_clean(), n);
  EXPECT_GT(net->nodes_skipped_clean(), (9 * n) / 10);  // >90% skipped
}

TEST(IncrementalStabilization, FullPassClearsTheQueue) {
  auto net = make_sparse_overlay(OverlayKind::kChord, 7, 200, 12);
  net->set_dirty_tracking(true);
  std::uint64_t seed = 3;
  dht::NodeHandle h = dht::kNoNode;
  while (h == dht::kNoNode) h = net->join(seed++);
  EXPECT_GT(net->dirty_queue().size(), 0u);
  net->stabilize_all();
  EXPECT_EQ(net->dirty_queue().size(), 0u);  // everyone was refreshed anyway
}

TEST(IncrementalStabilizationDeathTest, DrainWithoutTrackingTraps) {
  auto net = make_sparse_overlay(OverlayKind::kChord, 7, 200, 12);
  EXPECT_DEATH(net->stabilize_dirty(), "Precondition");
}

TEST(Maintenance, ResetClearsTheCounter) {
  auto net = make_sparse_overlay(OverlayKind::kKoorde, 6, 100, 10);
  std::uint64_t seed = 1;
  while (net->join(seed++) == dht::kNoNode) {
  }
  EXPECT_GT(net->maintenance_metrics().total(), 0u);
  net->reset_maintenance();
  EXPECT_EQ(net->maintenance_metrics().total(), 0u);
}

}  // namespace
}  // namespace cycloid::exp
