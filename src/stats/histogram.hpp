// Integer-valued histogram for hop counts and per-node load distributions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cycloid::stats {

class Histogram {
 public:
  void add(std::uint64_t value);

  /// ASCII rendering, one bucket per line, for example programs.
  std::string render(std::size_t max_bar_width = 50) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
};

}  // namespace cycloid::stats
