#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace cycloid::stats {

void Summary::add(double value) {
  samples_.push_back(value);
  sorted_valid_ = false;
}

void Summary::merge(const Summary& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sorted_valid_ = false;
}

double Summary::mean() const {
  CYCLOID_EXPECTS(!samples_.empty());
  double total = 0.0;
  for (const double v : samples_) total += v;
  return total / static_cast<double>(samples_.size());
}

double Summary::min() const {
  CYCLOID_EXPECTS(!samples_.empty());
  return *std::min_element(samples_.begin(), samples_.end());
}

double Summary::max() const {
  CYCLOID_EXPECTS(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

double Summary::variance() const {
  CYCLOID_EXPECTS(!samples_.empty());
  const double m = mean();
  double total = 0.0;
  for (const double v : samples_) total += (v - m) * (v - m);
  return total / static_cast<double>(samples_.size());
}

double Summary::stddev() const { return std::sqrt(variance()); }

void Summary::ensure_sorted() const {
  if (sorted_valid_) return;
  sorted_ = samples_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double Summary::percentile(double q) const {
  CYCLOID_EXPECTS(!samples_.empty());
  CYCLOID_EXPECTS(q >= 0.0 && q <= 100.0);
  ensure_sorted();
  if (q == 0.0) return sorted_.front();
  // Nearest-rank: smallest value with at least q% of samples at or below it.
  const auto n = static_cast<double>(sorted_.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  if (rank == 0) rank = 1;
  return sorted_[rank - 1];
}

}  // namespace cycloid::stats
