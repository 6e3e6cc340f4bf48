// Tests for the deterministic RNG all experiments are seeded with.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace cycloid::util {
namespace {

TEST(Splitmix, DeterministicSequence) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  }
}

TEST(Mix64, StatelessAndSpreading) {
  EXPECT_EQ(mix64(7), mix64(7));
  EXPECT_NE(mix64(7), mix64(8));
  // Consecutive inputs should differ in many bits (avalanche sanity check).
  int weak = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const int flipped = std::popcount(mix64(i) ^ mix64(i + 1));
    if (flipped < 16 || flipped > 48) ++weak;
  }
  EXPECT_LT(weak, 20);
}

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(9);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a());
  a.reseed(9);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(10);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t bound = 1 + rng() % 1000;
    EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(12);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[static_cast<std::size_t>(rng.below(kBuckets))];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets / 5);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01HalfOpen) {
  Rng rng(14);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(15);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(16);
  const double rate = 4.0;
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.exponential(rate);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 100000.0, 1.0 / rate, 0.01);
}

}  // namespace
}  // namespace cycloid::util
