#include "stats/histogram.hpp"

#include <algorithm>

namespace cycloid::stats {

void Histogram::add(std::uint64_t value) {
  if (value >= buckets_.size()) buckets_.resize(value + 1, 0);
  ++buckets_[value];
  ++total_;
}

std::string Histogram::render(std::size_t max_bar_width) const {
  std::string out;
  if (total_ == 0) return out;
  const std::uint64_t peak =
      *std::max_element(buckets_.begin(), buckets_.end());
  for (std::size_t v = 0; v < buckets_.size(); ++v) {
    const std::size_t width =
        peak == 0 ? 0
                  : static_cast<std::size_t>(
                        static_cast<double>(buckets_[v]) /
                        static_cast<double>(peak) *
                        static_cast<double>(max_bar_width));
    out += std::to_string(v) + ": " + std::string(width, '#') + " " +
           std::to_string(buckets_[v]) + "\n";
  }
  return out;
}

}  // namespace cycloid::stats
