// Tests for CCC identifiers, the hash mapping, and the key-closeness order
// that defines Cycloid's key assignment (paper Sec. 3.1).
#include "core/id.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace cycloid::ccc {
namespace {

class CccSpaceTest : public ::testing::TestWithParam<int> {};

TEST(CccSpace, SizeAndValidity) {
  const CccSpace space(3);
  EXPECT_EQ(space.dimension(), 3);
  EXPECT_EQ(space.cube_size(), 8u);
  EXPECT_EQ(space.size(), 24u);
  EXPECT_TRUE(space.valid(CccId{2, 7}));
  EXPECT_FALSE(space.valid(CccId{3, 0}));
  EXPECT_FALSE(space.valid(CccId{0, 8}));
}

TEST_P(CccSpaceTest, HashMappingStaysInSpace) {
  const CccSpace space(GetParam());
  util::Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const CccId id = space.id_from_hash(rng());
    EXPECT_TRUE(space.valid(id));
  }
}

TEST_P(CccSpaceTest, HashMappingMatchesPaperFormula) {
  // "the cyclic index ... is set to its hash value modulated by d and the
  // cubical index is set to the hash value divided by d".
  const int d = GetParam();
  const CccSpace space(d);
  util::Rng rng(d + 100);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t h = rng();
    const CccId id = space.id_from_hash(h);
    EXPECT_EQ(id.cyclic, h % static_cast<std::uint64_t>(d));
    EXPECT_EQ(id.cubical,
              (h / static_cast<std::uint64_t>(d)) % space.cube_size());
  }
}

TEST_P(CccSpaceTest, RingPositionRoundTrip) {
  const CccSpace space(GetParam());
  for (std::uint64_t pos = 0; pos < space.size(); ++pos) {
    const CccId id = space.from_ring_position(pos);
    EXPECT_TRUE(space.valid(id));
    EXPECT_EQ(space.ring_position(id), pos);
    // Read as a key hash, a ring position maps back to its id, so routing
    // toward ring_position(id) targets exactly id.
    EXPECT_EQ(space.id_from_hash(pos), id);
  }
}

TEST_P(CccSpaceTest, RingPositionOrdersByCubicalThenCyclic) {
  const int d = GetParam();
  if (d < 3) GTEST_SKIP() << "needs cyclic index 1 and cubical index 4";
  const CccSpace space(d);
  const CccId a{1, 3};
  const CccId b{0, 4};
  EXPECT_LT(space.ring_position(a), space.ring_position(b));
}

TEST_P(CccSpaceTest, ClosenessIsStrictWeakOrder) {
  const int d = GetParam();
  const CccSpace space(d);
  util::Rng rng(d + 7);
  const auto random_id = [&] {
    return CccId{static_cast<std::uint32_t>(rng.below(static_cast<std::uint64_t>(d))),
                 rng.below(space.cube_size())};
  };
  for (int i = 0; i < 2000; ++i) {
    const CccId key = random_id();
    const CccId x = random_id();
    const CccId y = random_id();
    const CccId z = random_id();
    // Irreflexive.
    EXPECT_FALSE(space.id_closer(key, x, x));
    // Antisymmetric.
    if (space.id_closer(key, x, y)) {
      EXPECT_FALSE(space.id_closer(key, y, x));
    }
    // Transitive.
    if (space.id_closer(key, x, y) && space.id_closer(key, y, z)) {
      EXPECT_TRUE(space.id_closer(key, x, z));
    }
    // Total over distinct ids: distinct ids never tie in rank.
    if (!(x == y)) {
      EXPECT_NE(space.closeness_rank(key, x), space.closeness_rank(key, y));
    }
  }
}

TEST(CccSpace, ClosenessMatchesPaperExample) {
  // Paper Sec. 3.1: "(1,1101) is closer to (2,1101) than (2,1001)" — i.e.
  // with key (2,1101), candidate (1,1101) beats candidate (2,1001) because
  // cubical distance dominates.
  const CccSpace space(4);
  const CccId key{2, 0b1101};
  const CccId same_cycle{1, 0b1101};
  const CccId other_cycle{2, 0b1001};
  EXPECT_TRUE(space.id_closer(key, same_cycle, other_cycle));
}

TEST(CccSpace, ExactMatchIsAlwaysClosest) {
  const CccSpace space(5);
  util::Rng rng(55);
  for (int i = 0; i < 500; ++i) {
    const CccId key{static_cast<std::uint32_t>(rng.below(5)),
                    rng.below(32)};
    const CccId other{static_cast<std::uint32_t>(rng.below(5)),
                      rng.below(32)};
    EXPECT_EQ(space.closeness_rank(key, key), 0u);
    if (!(other == key)) {
      EXPECT_TRUE(space.id_closer(key, key, other));
    }
  }
}

TEST(CccSpace, TieBrokenClockwise) {
  // Key cubical 4; candidates at cubical 3 and 5 are equidistant; the
  // clockwise one (5, the key's "successor" side) must win.
  const CccSpace space(4);
  const CccId key{0, 4};
  const CccId clockwise{0, 5};
  const CccId counter{0, 3};
  EXPECT_TRUE(space.id_closer(key, clockwise, counter));
}

TEST(CccSpace, CyclicTieBrokenClockwise) {
  const CccSpace space(8);
  const CccId key{4, 10};
  const CccId clockwise{6, 10};
  const CccId counter{2, 10};
  EXPECT_TRUE(space.id_closer(key, clockwise, counter));
}

TEST(CccSpace, CubicalDistanceWraps) {
  const CccSpace space(4);
  EXPECT_EQ(space.cubical_distance(0, 15), 1u);
  EXPECT_EQ(space.cubical_distance(0, 8), 8u);
  EXPECT_EQ(space.cubical_distance(3, 3), 0u);
}

TEST(CccSpace, CyclicDistanceWraps) {
  const CccSpace space(8);
  EXPECT_EQ(space.cyclic_distance(0, 7), 1u);
  EXPECT_EQ(space.cyclic_distance(0, 4), 4u);
  EXPECT_EQ(space.cyclic_distance(2, 2), 0u);
}

TEST(ToString, MatchesPaperNotation) {
  EXPECT_EQ(to_string(CccId{4, 0b10110110}, 8), "(4, 10110110)");
  EXPECT_EQ(to_string(CccId{0, 0b0100}, 4), "(0, 0100)");
}

INSTANTIATE_TEST_SUITE_P(AllDimensions, CccSpaceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 10));

}  // namespace
}  // namespace cycloid::ccc
