// Exhaustive small-network verification: in complete 3- and 4-dimensional
// Cycloid networks, route from EVERY node toward EVERY identifier position
// and verify termination at the exact owner. This covers all corner cases
// of the three routing phases (wrap-around cycles, primary nodes, cyclic
// index 0 nodes without routing tables, equidistant keys) by brute force.
#include <gtest/gtest.h>

#include "core/network.hpp"
#include "util/rng.hpp"

namespace cycloid::ccc {
namespace {

using dht::NodeHandle;

class ExhaustiveTest : public ::testing::TestWithParam<int> {};

TEST_P(ExhaustiveTest, EverySourceToEveryPosition_Complete) {
  const int d = GetParam();
  auto net = CycloidNetwork::build_complete(d);
  const CccSpace& space = net->space();
  dht::LookupMetrics sink;
  for (const NodeHandle from : net->node_handles()) {
    for (std::uint64_t pos = 0; pos < space.size(); ++pos) {
      const CccId key = space.from_ring_position(pos);
      const dht::LookupResult result = net->lookup(from, pos, sink);
      // In a complete network the owner of a position is the node at it.
      ASSERT_EQ(result.destination, CycloidNetwork::handle_of(key))
          << "from=" << to_string(CycloidNetwork::id_of(from), d)
          << " key=" << to_string(key, d);
      ASSERT_LE(result.hops, 4 * d);
      ASSERT_EQ(result.timeouts, 0);
    }
  }
  EXPECT_EQ(sink.guard_fallbacks, 0u);
}

TEST_P(ExhaustiveTest, EverySourceToEveryPosition_HalfPopulated) {
  const int d = GetParam();
  const CccSpace space(d);
  util::Rng rng(31 + d);
  auto net = CycloidNetwork::build_random(d, space.size() / 2, rng);
  dht::LookupMetrics sink;
  for (const NodeHandle from : net->node_handles()) {
    for (std::uint64_t pos = 0; pos < space.size(); ++pos) {
      const CccId key = space.from_ring_position(pos);
      const dht::LookupResult result = net->lookup(from, pos, sink);
      ASSERT_EQ(result.destination, net->owner_of_id(key))
          << "from=" << to_string(CycloidNetwork::id_of(from), d)
          << " key=" << to_string(key, d);
    }
  }
  EXPECT_EQ(sink.guard_fallbacks, 0u);
}

TEST_P(ExhaustiveTest, EveryPairAfterEverySingleDeparture) {
  // Remove each node in turn from a small complete network and verify that
  // all lookups toward its (reassigned) positions still resolve.
  const int d = GetParam();
  if (d > 3) GTEST_SKIP() << "cubic cost; d=3 covers the logic";
  const CccSpace space(d);
  for (std::uint64_t victim_pos = 0; victim_pos < space.size();
       ++victim_pos) {
    auto net = CycloidNetwork::build_complete(d);
    net->leave(CycloidNetwork::handle_of(space.from_ring_position(victim_pos)));
    dht::LookupMetrics sink;
    for (const NodeHandle from : net->node_handles()) {
      for (std::uint64_t pos = 0; pos < space.size(); ++pos) {
        const CccId key = space.from_ring_position(pos);
        const dht::LookupResult result = net->lookup(from, pos, sink);
        ASSERT_EQ(result.destination, net->owner_of_id(key))
            << "victim=" << victim_pos << " from="
            << to_string(CycloidNetwork::id_of(from), d)
            << " key=" << to_string(key, d);
      }
    }
  }
}

TEST(ExhaustiveTinyDimensions, DegenerateSpacesWork) {
  // d = 1: 2 positions; d = 2: 8 positions. Every build size must route.
  for (const int d : {1, 2}) {
    const CccSpace space(d);
    for (std::size_t count = 1; count <= space.size(); ++count) {
      util::Rng rng(static_cast<std::uint64_t>(d * 100 + static_cast<int>(count)));
      auto net = CycloidNetwork::build_random(d, count, rng);
      dht::LookupMetrics sink;
      for (const NodeHandle from : net->node_handles()) {
        for (std::uint64_t pos = 0; pos < space.size(); ++pos) {
          const CccId key = space.from_ring_position(pos);
          const dht::LookupResult result = net->lookup(from, pos, sink);
          ASSERT_EQ(result.destination, net->owner_of_id(key))
              << "d=" << d << " count=" << count;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmallDimensions, ExhaustiveTest,
                         ::testing::Values(3, 4));

}  // namespace
}  // namespace cycloid::ccc
