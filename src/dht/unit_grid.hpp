// A uniform grid of buckets over the unit square [0,1)^2: the exact
// geometric index behind Pastry's proximity neighbourhoods and CAN's zone
// ownership (DESIGN.md §16).
//
// Cell map: along each axis, u -> floor(u * side) clamped into [0, side).
// Rounding a product, floor and the clamps are all monotone in IEEE
// arithmetic, so u <= v implies cell(u) <= cell(v), and every point of a
// box [lo, hi) maps into the cell span [cell(lo), cell(prev(hi))], where
// prev(hi) is the largest double below hi. An overlay files a member in the
// cell of its point (Pastry) or in every cell of its boxes' spans (CAN); a
// query then reads only the cells it needs.
//
// Sizing: fit(members) sizes the grid to side x side cells, about two
// members per cell. It re-fits only when the member count has drifted 2x
// since the last fit, emptying every bucket and returning true so the
// caller files its members again: O(1) amortized per membership change.
// Buckets are unordered.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/contracts.hpp"

namespace cycloid::dht {

template <typename T>
class UnitGrid {
 public:
  /// Inclusive range of cell indices along one axis.
  struct Span {
    std::uint32_t first;
    std::uint32_t last;
  };

  /// Cells along each axis.
  std::uint32_t side() const noexcept { return side_; }
  std::size_t cell_count() const noexcept { return buckets_.size(); }

  /// Cell of coordinate `u` on an axis of `side` cells: floor(u * side)
  /// clamped into [0, side). Monotone in `u`.
  static std::uint32_t axis_cell(double u, std::uint32_t side) {
    const double scaled = std::floor(u * side);
    if (!(scaled > 0.0)) return 0;  // also catches NaN
    return scaled >= side ? side - 1 : static_cast<std::uint32_t>(scaled);
  }

  /// Cells of an axis of `side` cells that hold some point of [lo, hi).
  static Span axis_span(double lo, double hi, std::uint32_t side) {
    CYCLOID_EXPECTS(lo < hi);
    const double below_hi =
        std::nextafter(hi, -std::numeric_limits<double>::infinity());
    return {axis_cell(lo, side), axis_cell(below_hi, side)};
  }

  std::uint32_t column_of(double x) const { return axis_cell(x, side_); }
  std::uint32_t row_of(double y) const { return axis_cell(y, side_); }
  Span column_span(double lo, double hi) const {
    return axis_span(lo, hi, side_);
  }
  Span row_span(double lo, double hi) const { return axis_span(lo, hi, side_); }

  std::size_t cell(std::uint32_t column, std::uint32_t row) const {
    CYCLOID_EXPECTS(column < side_ && row < side_);
    return static_cast<std::size_t>(row) * side_ + column;
  }
  std::size_t cell_of(double x, double y) const {
    return cell(column_of(x), row_of(y));
  }

  const std::vector<T>& bucket(std::size_t cell) const {
    CYCLOID_EXPECTS(cell < buckets_.size());
    return buckets_[cell];
  }

  void add(std::size_t cell, const T& value) {
    CYCLOID_EXPECTS(cell < buckets_.size());
    buckets_[cell].push_back(value);
  }

  /// Remove one copy of `value`, which must be in the cell's bucket.
  void remove(std::size_t cell, const T& value) {
    CYCLOID_EXPECTS(cell < buckets_.size());
    std::vector<T>& bucket = buckets_[cell];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (bucket[i] == value) {
        bucket[i] = bucket.back();
        bucket.pop_back();
        return;
      }
    }
    CYCLOID_EXPECTS(false);  // absent value
  }

  /// Re-fit to `members` when it has drifted 2x from the last fit: size
  /// the grid to about two members per cell, empty every bucket and return
  /// true (the caller then files all its members again). False otherwise.
  bool fit(std::size_t members) {
    if (members <= 2 * fitted_ && 2 * members >= fitted_) return false;
    fitted_ = members;
    const double half = static_cast<double>(members) / 2.0;
    side_ = static_cast<std::uint32_t>(
        std::max(1.0, std::round(std::sqrt(half))));
    buckets_.assign(static_cast<std::size_t>(side_) * side_, {});
    return true;
  }

 private:
  std::uint32_t side_ = 1;
  std::size_t fitted_ = 0;  ///< member count at the last fit
  std::vector<std::vector<T>> buckets_ = std::vector<std::vector<T>>(1);
};

}  // namespace cycloid::dht
