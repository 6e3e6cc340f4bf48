// dht::UnitGrid — the bucket grid behind Pastry's proximity neighbourhoods
// and CAN's zone ownership (dht/unit_grid.hpp): the cell map is monotone
// and clamped (at 1 - ulp and on exact cell edges), a box's cell span
// holds every point of the box, and fit() re-sizes in both directions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "dht/unit_grid.hpp"
#include "util/rng.hpp"

namespace cycloid::dht {
namespace {

using Grid = UnitGrid<int>;

double below(double u) {
  return std::nextafter(u, -std::numeric_limits<double>::infinity());
}

const std::uint32_t kSides[] = {1, 2, 3, 7, 8, 10, 91, 256, 1000};

TEST(UnitGrid, CellMapIsClampedAtBothEnds) {
  for (const std::uint32_t side : kSides) {
    EXPECT_EQ(Grid::axis_cell(0.0, side), 0u);
    EXPECT_EQ(Grid::axis_cell(-0.0, side), 0u);
    EXPECT_EQ(Grid::axis_cell(-0.25, side), 0u);
    EXPECT_EQ(Grid::axis_cell(below(1.0), side), side - 1) << side;
    EXPECT_EQ(Grid::axis_cell(1.0, side), side - 1);
    EXPECT_EQ(Grid::axis_cell(7.5, side), side - 1);
  }
}

TEST(UnitGrid, ExactCellEdgesOpenTheirCell) {
  // k / side is exact for power-of-two sides: the edge belongs to cell k,
  // the double just below it to cell k - 1.
  for (const std::uint32_t side : {2u, 8u, 256u}) {
    for (std::uint32_t k = 1; k < side; ++k) {
      const double edge = static_cast<double>(k) / side;
      EXPECT_EQ(Grid::axis_cell(edge, side), k);
      EXPECT_EQ(Grid::axis_cell(below(edge), side), k - 1);
    }
  }
}

TEST(UnitGrid, CellMapIsMonotone) {
  util::Rng rng(1);
  for (const std::uint32_t side : kSides) {
    std::vector<double> us;
    for (int i = 0; i < 2000; ++i) us.push_back(rng.uniform01());
    // Edges of every cell (rounded k / side) and the doubles beside them.
    for (std::uint32_t k = 0; k <= side; ++k) {
      const double edge = static_cast<double>(k) / side;
      us.push_back(edge);
      us.push_back(below(edge));
      us.push_back(std::nextafter(edge, 2.0));
    }
    std::sort(us.begin(), us.end());
    for (std::size_t i = 1; i < us.size(); ++i) {
      ASSERT_LE(Grid::axis_cell(us[i - 1], side), Grid::axis_cell(us[i], side))
          << "side " << side << " at " << us[i];
    }
  }
}

TEST(UnitGrid, SpanHoldsEveryPointOfTheBox) {
  util::Rng rng(2);
  for (const std::uint32_t side : kSides) {
    for (int trial = 0; trial < 300; ++trial) {
      // Dyadic boxes (CAN's zones) and arbitrary ones.
      double lo = 0.0;
      double hi = 1.0;
      if (trial % 2 == 0) {
        const int depth = static_cast<int>(rng.below(12));
        const double width = std::ldexp(1.0, -depth);
        lo = static_cast<double>(rng.below(1ULL << depth)) * width;
        hi = lo + width;
      } else {
        lo = rng.uniform01();
        hi = lo + (1.0 - lo) * rng.uniform01();
        if (!(lo < hi)) continue;
      }
      const Grid::Span span = Grid::axis_span(lo, hi, side);
      ASSERT_LE(span.first, span.last);
      EXPECT_EQ(span.first, Grid::axis_cell(lo, side));
      EXPECT_EQ(span.last, Grid::axis_cell(below(hi), side));
      for (const double u : {lo, below(hi), lo + (hi - lo) * rng.uniform01()}) {
        if (!(u >= lo && u < hi)) continue;
        const std::uint32_t c = Grid::axis_cell(u, side);
        ASSERT_GE(c, span.first) << lo << " " << hi << " " << u;
        ASSERT_LE(c, span.last) << lo << " " << hi << " " << u;
      }
    }
  }
}

TEST(UnitGrid, AdjacentBoxSpansJoinWithoutAGap) {
  // Coalescing two buddy zones must not change the cells they cover: the
  // spans of [a, b) and [b, c) are contiguous and union to that of [a, c).
  util::Rng rng(3);
  for (const std::uint32_t side : kSides) {
    for (int trial = 0; trial < 300; ++trial) {
      const int depth = 1 + static_cast<int>(rng.below(12));
      const double width = std::ldexp(1.0, -depth);
      const double a = static_cast<double>(rng.below(1ULL << (depth - 1))) *
                       2.0 * width;
      const Grid::Span left = Grid::axis_span(a, a + width, side);
      const Grid::Span right = Grid::axis_span(a + width, a + 2 * width, side);
      const Grid::Span whole = Grid::axis_span(a, a + 2 * width, side);
      EXPECT_LE(right.first, left.last + 1);
      EXPECT_EQ(left.first, whole.first);
      EXPECT_EQ(right.last, whole.last);
    }
  }
}

TEST(UnitGrid, FitResizesOnTwofoldDriftBothWays) {
  Grid grid;
  EXPECT_EQ(grid.cell_count(), 1u);
  EXPECT_FALSE(grid.fit(0));  // an empty grid already fits nothing

  EXPECT_TRUE(grid.fit(200));
  EXPECT_EQ(grid.side(), 10u);  // sqrt(200 / 2)
  EXPECT_EQ(grid.cell_count(), 100u);
  grid.add(grid.cell_of(0.55, 0.05), 7);
  EXPECT_EQ(grid.bucket(grid.cell(5, 0)), std::vector<int>{7});

  EXPECT_FALSE(grid.fit(400));  // within 2x: buckets kept
  EXPECT_FALSE(grid.fit(100));
  EXPECT_EQ(grid.bucket(grid.cell(5, 0)).size(), 1u);

  EXPECT_TRUE(grid.fit(401));  // grew past 2x: re-fit and emptied
  EXPECT_EQ(grid.side(), 14u);
  for (std::size_t c = 0; c < grid.cell_count(); ++c) {
    EXPECT_TRUE(grid.bucket(c).empty());
  }

  EXPECT_TRUE(grid.fit(200));  // shrank past 2x
  EXPECT_EQ(grid.side(), 10u);
  EXPECT_TRUE(grid.fit(3));
  EXPECT_EQ(grid.cell_count(), 1u);
}

TEST(UnitGrid, RemoveTakesOneCopy) {
  Grid grid;
  grid.fit(50);  // 5 x 5
  const std::size_t cell = grid.cell_of(0.5, 0.5);
  grid.add(cell, 1);
  grid.add(cell, 2);
  grid.add(cell, 1);
  grid.remove(cell, 1);
  std::vector<int> left = grid.bucket(cell);
  std::sort(left.begin(), left.end());
  EXPECT_EQ(left, (std::vector<int>{1, 2}));
  EXPECT_DEATH(grid.remove(cell, 3), "Precondition");
  EXPECT_DEATH(grid.remove(grid.cell_of(0.1, 0.1), 2), "Precondition");
}

}  // namespace
}  // namespace cycloid::dht
