// Statistical summaries used by every experiment.
//
// The paper reports each series as "mean, 1st and 99th percentiles"
// (Figs. 8-10, Tables 4-5). Summary stores all samples and computes exact
// percentiles; the sample counts here (at most a few million doubles) make
// streaming approximations unnecessary.
#pragma once

#include <cstdint>
#include <vector>

namespace cycloid::stats {

class Summary {
 public:
  Summary() = default;

  void add(double value);
  void add_count(std::uint64_t value) { add(static_cast<double>(value)); }

  /// Merge another summary's samples into this one.
  void merge(const Summary& other);

  bool empty() const noexcept { return samples_.empty(); }
  std::size_t count() const noexcept { return samples_.size(); }

  double mean() const;
  double min() const;
  double max() const;
  /// Population variance and standard deviation.
  double variance() const;
  double stddev() const;

  /// Exact percentile by the nearest-rank method; q in [0, 100].
  double percentile(double q) const;
  double p1() const { return percentile(1.0); }
  double p99() const { return percentile(99.0); }
  double median() const { return percentile(50.0); }

  const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

}  // namespace cycloid::stats
