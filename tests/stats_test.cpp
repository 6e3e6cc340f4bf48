// Tests for the summary statistics the paper's figures are reported with.
#include <gtest/gtest.h>

#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "util/rng.hpp"

namespace cycloid::stats {
namespace {

TEST(Summary, MeanMinMax) {
  Summary s;
  for (const double v : {4.0, 1.0, 3.0, 2.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_EQ(s.count(), 4u);
}

TEST(Summary, VarianceAndStddev) {
  Summary s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook data set
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
}

TEST(Summary, ConstantSeriesHasZeroVariance) {
  Summary s;
  for (int i = 0; i < 10; ++i) s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, PercentileNearestRank) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.p1(), 1.0);
  EXPECT_DOUBLE_EQ(s.median(), 50.0);
  EXPECT_DOUBLE_EQ(s.p99(), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
}

TEST(Summary, PercentileSingleSample) {
  Summary s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.p1(), 42.0);
  EXPECT_DOUBLE_EQ(s.p99(), 42.0);
  EXPECT_DOUBLE_EQ(s.median(), 42.0);
}

TEST(Summary, PercentileMonotoneInQ) {
  util::Rng rng(31);
  Summary s;
  for (int i = 0; i < 500; ++i) s.add(rng.uniform01());
  double prev = s.percentile(0.0);
  for (double q = 5.0; q <= 100.0; q += 5.0) {
    const double cur = s.percentile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(Summary, PercentileIsASample) {
  util::Rng rng(32);
  Summary s;
  for (int i = 0; i < 97; ++i) s.add(static_cast<double>(rng.below(50)));
  for (const double q : {1.0, 17.0, 50.0, 83.0, 99.0}) {
    const double v = s.percentile(q);
    bool found = false;
    for (const double sample : s.samples()) found |= sample == v;
    EXPECT_TRUE(found) << "q=" << q;
  }
}

TEST(Summary, AddAfterPercentileInvalidatesCache) {
  Summary s;
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.p99(), 1.0);
  s.add(100.0);
  EXPECT_DOUBLE_EQ(s.p99(), 100.0);
}

TEST(Summary, MergeCombinesSamples) {
  Summary a;
  Summary b;
  a.add(1.0);
  a.add(2.0);
  b.add(3.0);
  b.add(4.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
}

TEST(SummaryDeathTest, AccessorsTrapOnAnEmptySeries) {
  // Pinned contract: an empty series has no mean/percentile — the accessors
  // abort rather than emit NaN. Callers that can legitimately see zero
  // samples (e.g. a bench cell with its lookup count dialed to 0) must
  // guard with empty() and render the degenerate row explicitly.
  Summary s;
  ASSERT_TRUE(s.empty());
  EXPECT_DEATH(s.mean(), "Precondition");
  EXPECT_DEATH(s.min(), "Precondition");
  EXPECT_DEATH(s.max(), "Precondition");
  EXPECT_DEATH(s.percentile(99.0), "Precondition");
}

TEST(Summary, AddCount) {
  Summary s;
  s.add_count(7);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
}

TEST(Histogram, RenderShowsEveryBucket) {
  Histogram h;
  h.add(0);
  h.add(2);
  const std::string text = h.render(10);
  EXPECT_NE(text.find("0: "), std::string::npos);
  EXPECT_NE(text.find("1: "), std::string::npos);
  EXPECT_NE(text.find("2: "), std::string::npos);
}

TEST(Histogram, EmptyRenderIsEmpty) {
  Histogram h;
  EXPECT_TRUE(h.render().empty());
}

}  // namespace
}  // namespace cycloid::stats
