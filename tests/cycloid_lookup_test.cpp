// Lookup correctness and complexity properties of the Cycloid routing
// algorithm (paper Sec. 3.2): every lookup terminates at the key's owner,
// path lengths are O(d), and the phase structure matches the paper.
#include <gtest/gtest.h>

#include <limits>

#include "core/network.hpp"
#include "exp/workloads.hpp"
#include "util/rng.hpp"

namespace cycloid::ccc {
namespace {

using dht::kNoNode;
using dht::NodeHandle;

/// Brute-force owner: minimum closeness rank over every live node.
NodeHandle brute_force_owner(const CycloidNetwork& net, const CccId& key) {
  NodeHandle best = kNoNode;
  std::uint64_t best_rank = std::numeric_limits<std::uint64_t>::max();
  for (const NodeHandle h : net.node_handles()) {
    const std::uint64_t rank =
        net.space().closeness_rank(key, CycloidNetwork::id_of(h));
    if (rank < best_rank) {
      best_rank = rank;
      best = h;
    }
  }
  return best;
}

class LookupTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  int dimension() const { return std::get<0>(GetParam()); }
  int leaf_width() const { return std::get<1>(GetParam()); }
};

TEST_P(LookupTest, OwnerMatchesBruteForceOnSparseNetworks) {
  const CccSpace space(dimension());
  util::Rng rng(dimension() * 1000 + leaf_width());
  auto net = CycloidNetwork::build_random(
      dimension(), std::max<std::size_t>(3, space.size() / 3), rng,
      leaf_width());
  for (int i = 0; i < 400; ++i) {
    const CccId key = space.id_from_hash(rng());
    EXPECT_EQ(net->owner_of_id(key), brute_force_owner(*net, key));
  }
}

TEST_P(LookupTest, EveryLookupReachesTheOwner_Complete) {
  auto net = CycloidNetwork::build_complete(dimension(), leaf_width());
  util::Rng rng(42 + dimension());
  dht::LookupMetrics sink;
  for (int i = 0; i < 500; ++i) {
    const NodeHandle from = net->random_node(rng);
    const dht::KeyHash key = rng();
    const dht::LookupResult result = net->lookup(from, key, sink);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.destination, net->owner_of(key));
    EXPECT_EQ(result.timeouts, 0);
  }
  EXPECT_EQ(sink.guard_fallbacks, 0u);
}

TEST_P(LookupTest, EveryLookupReachesTheOwner_Sparse) {
  const CccSpace space(dimension());
  util::Rng rng(77 + dimension() * 3 + leaf_width());
  for (const std::size_t divisor : {2, 4, 8}) {
    const std::size_t count =
        std::max<std::size_t>(2, space.size() / divisor);
    auto net =
        CycloidNetwork::build_random(dimension(), count, rng, leaf_width());
    dht::LookupMetrics sink;
    for (int i = 0; i < 200; ++i) {
      const NodeHandle from = net->random_node(rng);
      const dht::KeyHash key = rng();
      const dht::LookupResult result = net->lookup(from, key, sink);
      EXPECT_TRUE(result.success);
      EXPECT_EQ(result.destination, net->owner_of(key));
    }
    EXPECT_EQ(sink.guard_fallbacks, 0u);
  }
}

TEST_P(LookupTest, PathLengthIsOrderD) {
  auto net = CycloidNetwork::build_complete(dimension(), leaf_width());
  util::Rng rng(5 + dimension());
  int max_hops = 0;
  double total = 0;
  const int lookups = 500;
  dht::LookupMetrics sink;
  for (int i = 0; i < lookups; ++i) {
    const dht::LookupResult result =
        net->lookup(net->random_node(rng), rng(), sink);
    max_hops = std::max(max_hops, result.hops);
    total += result.hops;
  }
  // Each of the three phases is bounded by O(d); allow the constant.
  EXPECT_LE(max_hops, 5 * dimension() + 8);
  EXPECT_LE(total / lookups, 2.5 * dimension());
}

TEST_P(LookupTest, LookupFromOwnerIsLocal) {
  auto net = CycloidNetwork::build_complete(dimension(), leaf_width());
  util::Rng rng(9);
  dht::LookupMetrics sink;
  for (int i = 0; i < 100; ++i) {
    const dht::KeyHash key = rng();
    const NodeHandle owner = net->owner_of(key);
    const dht::LookupResult result = net->lookup(owner, key, sink);
    EXPECT_EQ(result.hops, 0);
    EXPECT_EQ(result.destination, owner);
  }
}

TEST_P(LookupTest, PhaseHopsSumToTotal) {
  auto net = CycloidNetwork::build_complete(dimension(), leaf_width());
  util::Rng rng(11);
  dht::LookupMetrics sink;
  for (int i = 0; i < 200; ++i) {
    const dht::LookupResult result =
        net->lookup(net->random_node(rng), rng(), sink);
    int phase_sum = 0;
    for (const int h : result.phase_hops) phase_sum += h;
    EXPECT_EQ(phase_sum, result.hops);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimensionsAndWidths, LookupTest,
    ::testing::Combine(::testing::Values(3, 4, 5, 6, 7, 8),
                       ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

TEST(LookupExample, PaperFigure4Route) {
  // Paper Fig. 4 routes from (0,0100) to key (2,1111) in a complete
  // four-dimensional Cycloid via ascending, two cube hops, and cycle
  // traversal. We check destination and the O(d) cost, not the exact path
  // (the paper's intermediate hops depend on routing-entry choices the text
  // leaves open).
  auto net = CycloidNetwork::build_complete(4);
  const dht::NodeHandle from = CycloidNetwork::handle_of(CccId{0, 0b0100});
  dht::LookupMetrics sink;
  const dht::LookupResult result =
      net->lookup(from, net->space().ring_position(CccId{2, 0b1111}), sink);
  EXPECT_EQ(CycloidNetwork::id_of(result.destination), (CccId{2, 0b1111}));
  EXPECT_GT(result.hops, 0);
  EXPECT_LE(result.hops, 3 * 4);
  EXPECT_GT(result.phase_hops[CycloidNetwork::kAscend], 0);
}

TEST(LookupPhases, AscendingIsShortInCompleteNetworks) {
  // Paper Sec. 4.1: "the ascending phase in Cycloid usually takes only one
  // step because the outside leaf set entry node is the primary node".
  auto net = CycloidNetwork::build_complete(6);
  util::Rng rng(123);
  const exp::WorkloadStats stats = exp::run_random_lookups(*net, 3000, rng);
  EXPECT_LE(stats.phase_fraction(CycloidNetwork::kAscend), 0.25);
}

TEST(LookupTrace, OneStepPerHopEndingAtDestination) {
  auto net = CycloidNetwork::build_complete(6);
  util::Rng rng(77);
  dht::LookupMetrics sink;
  for (int i = 0; i < 200; ++i) {
    const NodeHandle from = net->random_node(rng);
    const dht::KeyHash key = rng();
    std::vector<dht::TraceStep> trace;
    dht::RouterOptions options;
    options.trace = &trace;
    const dht::LookupResult result = net->route(from, key, sink, options);
    ASSERT_EQ(trace.size(), static_cast<std::size_t>(result.hops));
    if (!trace.empty()) {
      EXPECT_EQ(trace.back().node, result.destination);
    } else {
      EXPECT_EQ(result.destination, from);
    }
    // Phase attribution in the trace matches the aggregate counters.
    std::array<int, dht::kMaxPhases> per_phase{};
    for (const auto& step : trace) {
      ASSERT_LT(step.phase, dht::kMaxPhases);
      ++per_phase[step.phase];
      EXPECT_TRUE(net->contains(step.node));
      EXPECT_NE(step.link, nullptr);
      EXPECT_EQ(step.timeouts_before, 0);  // intact network
    }
    EXPECT_EQ(per_phase, result.phase_hops);
  }
}

TEST(LookupTrace, TimeoutsAttributedToSteps) {
  auto net = CycloidNetwork::build_complete(7);
  util::Rng rng(78);
  net->fail_simultaneously(0.4, rng);
  int traced_timeouts = 0;
  int reported_timeouts = 0;
  dht::LookupMetrics sink;
  for (int i = 0; i < 300; ++i) {
    std::vector<dht::TraceStep> trace;
    dht::RouterOptions options;
    options.trace = &trace;
    const dht::LookupResult result =
        net->route(net->random_node(rng), rng(), sink, options);
    reported_timeouts += result.timeouts;
    for (const auto& step : trace) traced_timeouts += step.timeouts_before;
  }
  EXPECT_GT(reported_timeouts, 0);
  // Timeouts on a step that ends the lookup (no further hop) are reported
  // but not attributed to any trace entry, so traced <= reported.
  EXPECT_LE(traced_timeouts, reported_timeouts);
  EXPECT_GE(traced_timeouts, reported_timeouts / 2);
}

}  // namespace
}  // namespace cycloid::ccc
