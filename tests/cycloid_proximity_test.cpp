// Tests for the proximity-aware neighbour-selection extension and the
// latency accounting it is measured with.
#include <gtest/gtest.h>

#include "core/network.hpp"
#include "dht/latency.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace cycloid::ccc {
namespace {

using dht::NodeHandle;

TEST(Proximity, CoordinatesAreDeterministicAndInRange) {
  // Coordinates live on the shared latency plane (dht/latency.hpp): a pure
  // function of the handle, so two networks — or a network and a departed
  // node — always agree.
  auto net = CycloidNetwork::build_complete(5);
  for (const NodeHandle h : net->node_handles()) {
    const dht::ProximityCoord c1 = dht::proximity_coord(h);
    const dht::ProximityCoord c2 = dht::proximity_coord(h);
    EXPECT_EQ(c1.x, c2.x);
    EXPECT_EQ(c1.y, c2.y);
    EXPECT_GE(c1.x, 0.0);
    EXPECT_LT(c1.x, 1.0);
    EXPECT_GE(c1.y, 0.0);
    EXPECT_LT(c1.y, 1.0);
  }
}

TEST(Proximity, LinkLatencyIsAMetric) {
  auto net = CycloidNetwork::build_complete(5);
  util::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const NodeHandle a = net->random_node(rng);
    const NodeHandle b = net->random_node(rng);
    const NodeHandle c = net->random_node(rng);
    const double ab = dht::torus_latency(a, b);
    EXPECT_GE(ab, 0.0);
    // Torus diagonal bound: sqrt(0.5^2 + 0.5^2).
    EXPECT_LE(ab, 0.7072);
    EXPECT_DOUBLE_EQ(ab, dht::torus_latency(b, a));
    EXPECT_DOUBLE_EQ(dht::torus_latency(a, a), 0.0);
    EXPECT_LE(dht::torus_latency(a, c), ab + dht::torus_latency(b, c) + 1e-12);
  }
}

TEST(Proximity, SelectionStillMatchesTheCubicalPattern) {
  util::Rng rng(2);
  auto net = CycloidNetwork::build_random(6, 200, rng, 1,
                                          dht::NeighborSelection::kProximity);
  for (const NodeHandle h : net->node_handles()) {
    const CycloidNode& node = net->node_state(h);
    if (node.id.cyclic == 0 || node.cubical_neighbor == dht::kNoNode) continue;
    const CccId cube = CycloidNetwork::id_of(node.cubical_neighbor);
    EXPECT_EQ(cube.cyclic, node.id.cyclic - 1);
    const std::uint64_t window = 1ULL << node.id.cyclic;
    const std::uint64_t base =
        util::flip_bit(node.id.cubical, static_cast<int>(node.id.cyclic)) &
        ~(window - 1);
    EXPECT_GE(cube.cubical, base);
    EXPECT_LT(cube.cubical, base + window);
  }
}

TEST(Proximity, SelectionPicksLowestLatencyCandidate) {
  auto net =
      CycloidNetwork::build_complete(6, 1, dht::NeighborSelection::kProximity);
  for (const NodeHandle h : net->node_handles()) {
    const CycloidNode& node = net->node_state(h);
    if (node.id.cyclic == 0) continue;
    ASSERT_NE(node.cubical_neighbor, dht::kNoNode);
    const double chosen = dht::torus_latency(h, node.cubical_neighbor);
    // In a complete network every pattern candidate exists; none may be
    // strictly closer than the chosen one.
    const std::uint64_t window = 1ULL << node.id.cyclic;
    const std::uint64_t base =
        util::flip_bit(node.id.cubical, static_cast<int>(node.id.cyclic)) &
        ~(window - 1);
    for (std::uint64_t a = base; a < base + window; ++a) {
      const NodeHandle cand =
          CycloidNetwork::handle_of(CccId{node.id.cyclic - 1, a});
      EXPECT_GE(dht::torus_latency(h, cand), chosen);
    }
  }
}

TEST(Proximity, LookupsRemainCorrectUnderProximityPolicy) {
  util::Rng rng(3);
  auto net = CycloidNetwork::build_random(7, 400, rng, 1,
                                          dht::NeighborSelection::kProximity);
  dht::LookupMetrics sink;
  for (int i = 0; i < 500; ++i) {
    const dht::KeyHash key = rng();
    const dht::LookupResult result =
        net->lookup(net->random_node(rng), key, sink);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.destination, net->owner_of(key));
  }
  EXPECT_EQ(sink.guard_fallbacks, 0u);
}

TEST(Proximity, ReducesRouteLatencyAtSimilarHops) {
  const auto measure = [](dht::NeighborSelection selection) {
    auto net = CycloidNetwork::build_complete(7, 1, selection);
    util::Rng rng(4);
    double hops = 0.0;
    double latency = 0.0;
    const int lookups = 3000;
    dht::LookupMetrics sink;
    for (int i = 0; i < lookups; ++i) {
      const NodeHandle from = net->random_node(rng);
      std::vector<dht::TraceStep> trace;
      dht::RouterOptions options;
      options.trace = &trace;
      const dht::LookupResult result = net->route(from, rng(), sink, options);
      hops += result.hops;
      latency += dht::trace_latency(trace);
    }
    return std::pair{hops / lookups, latency / lookups};
  };
  const auto [suffix_hops, suffix_latency] =
      measure(dht::NeighborSelection::kClosestSuffix);
  const auto [pns_hops, pns_latency] =
      measure(dht::NeighborSelection::kProximity);
  EXPECT_LT(pns_latency, 0.9 * suffix_latency);
  EXPECT_LT(std::abs(pns_hops - suffix_hops), 0.15 * suffix_hops);
}

TEST(Proximity, TracePricingSurvivesDepartedHops) {
  // Regression: route pricing must read the latencies recorded in the trace
  // (trace-is-truth), never re-look-up the hops — an intermediate node that
  // departed ungracefully after the lookup would otherwise trap the pricing
  // of a perfectly valid historical route.
  util::Rng rng(6);
  auto net = CycloidNetwork::build_random(6, 200, rng, 1);
  dht::LookupMetrics sink;
  for (int i = 0; i < 200; ++i) {
    const NodeHandle from = net->random_node(rng);
    std::vector<dht::TraceStep> trace;
    dht::RouterOptions options;
    options.trace = &trace;
    const dht::LookupResult result = net->route(from, rng(), sink, options);
    if (!result.success || trace.size() < 3) continue;
    const double before = dht::trace_latency(trace);
    // Kill a strictly intermediate hop with no repair of any kind.
    const NodeHandle victim = trace[trace.size() / 2].node;
    ASSERT_NE(victim, from);
    ASSERT_NE(victim, result.destination);
    net->fail_ungraceful(victim);
    EXPECT_DOUBLE_EQ(dht::trace_latency(trace), before);
    return;  // one departure is the scenario; don't churn the instance
  }
  FAIL() << "no successful route with an intermediate hop was sampled";
}

TEST(Proximity, RouteLatencySumsLinkLatencies) {
  auto net = CycloidNetwork::build_complete(5);
  util::Rng rng(5);
  dht::LookupMetrics sink;
  for (int i = 0; i < 100; ++i) {
    const NodeHandle from = net->random_node(rng);
    std::vector<dht::TraceStep> trace;
    dht::RouterOptions options;
    options.trace = &trace;
    net->route(from, rng(), sink, options);
    double expected = 0.0;
    NodeHandle prev = from;
    for (const auto& step : trace) {
      expected += dht::torus_latency(prev, step.node);
      prev = step.node;
    }
    EXPECT_DOUBLE_EQ(dht::trace_latency(trace), expected);
  }
}

}  // namespace
}  // namespace cycloid::ccc
