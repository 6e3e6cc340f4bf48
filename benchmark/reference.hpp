// Machine-speed reference for drift-corrected timings.
//
// On a shared host the speed of one core drifts by 10-70% over minutes
// (other tenants' load on the same caches, memory and cores), and thread
// CPU time drifts with wall time, so the drift is not preemption. Every
// timed sample of the benchmark is therefore paired with a fixed slice of
// reference work timed just before it, and factor() is that slice's time
// over its nominal time (> 1: the machine is slower now); the benchmark
// divides sample times by it. The slice matches the workload's bottleneck:
//   kCore    greedy finger routing on a 2^14-node ring (2 MB), run once
//            untimed so it is cached, then timed: follows the core's speed
//            and not what the previous sample left in the caches. For
//            workloads whose state fits the caches.
//   kMemory  a dependent pointer chase through a random 64 MB cycle:
//            follows memory latency. For workloads whose every hop misses
//            the caches.
// The reference is built here, not from the library, so no change to the
// library can change it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace bench {

class Reference {
 public:
  enum class Kind { kCore, kMemory };

  explicit Reference(Kind kind) : kind_(kind) {
    std::uint64_t state = 0x7265666572656e63ULL;
    if (kind_ == Kind::kMemory) {
      // Sattolo's shuffle: one cycle through every slot.
      chase_.resize(kChaseSlots);
      for (std::uint32_t i = 0; i < kChaseSlots; ++i) chase_[i] = i;
      for (std::uint32_t i = kChaseSlots - 1; i > 0; --i) {
        std::swap(chase_[i], chase_[next(state) % i]);
      }
      return;
    }
    ids_.resize(kNodes);
    for (std::uint64_t& id : ids_) id = next(state);
    std::sort(ids_.begin(), ids_.end());
    fingers_.resize(kNodes * kFingers);
    for (std::size_t i = 0; i < kNodes; ++i) {
      for (std::size_t k = 0; k < kFingers; ++k) {
        const auto it = std::lower_bound(ids_.begin(), ids_.end(),
                                         ids_[i] + (1ULL << (63 - k)));
        fingers_[i * kFingers + k] =
            it == ids_.end() ? 0u
                             : static_cast<std::uint32_t>(it - ids_.begin());
      }
    }
    queries_.resize(kQueries);
    for (Query& q : queries_) {
      q.from = static_cast<std::uint32_t>(next(state) % kNodes);
      q.key = next(state);
    }
  }

  /// Times one slice of reference work; returns its time over nominal.
  double factor() {
    if (kind_ == Kind::kMemory) {
      const auto start = std::chrono::steady_clock::now();
      std::uint32_t slot = position_;
      for (int i = 0; i < kChaseSteps; ++i) slot = chase_[slot];
      position_ = slot;
      return since_ns(start) / (kChaseNominalNs * kChaseSteps);
    }
    std::uint64_t hops = 0;
    for (const Query& q : queries_) hops += route(q);
    const auto start = std::chrono::steady_clock::now();
    for (const Query& q : queries_) hops += route(q);
    sink_ = hops;
    return since_ns(start) /
           (kRouteNominalNs * static_cast<double>(kQueries));
  }

 private:
  // Nominal times: about the medians on the 4-vCPU KVM host the bounds
  // were measured on, so factor() is near 1 there.
  static constexpr double kRouteNominalNs = 210.0;  // per warm ring lookup
  static constexpr double kChaseNominalNs = 170.0;  // per chase step
  static constexpr std::size_t kNodes = std::size_t{1} << 14;
  static constexpr std::size_t kFingers = 32;
  static constexpr std::size_t kQueries = 1024;
  static constexpr std::uint32_t kChaseSlots = 1u << 24;  // 64 MB
  static constexpr int kChaseSteps = 4096;

  struct Query {
    std::uint32_t from;
    std::uint64_t key;
  };

  static std::uint64_t next(std::uint64_t& state) {  // splitmix64
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  static double since_ns(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

  /// Greedy clockwise routing: take the longest finger that does not pass
  /// the key; stop when none fits.
  std::uint64_t route(const Query& q) const {
    std::uint32_t cur = q.from;
    std::uint64_t hops = 0;
    for (;;) {
      const std::uint64_t gap = q.key - ids_[cur];
      std::uint32_t next_node = cur;
      for (std::size_t k = 0; k < kFingers; ++k) {
        const std::uint32_t c = fingers_[cur * kFingers + k];
        if (c != cur && ids_[c] - ids_[cur] <= gap) {
          next_node = c;
          break;
        }
      }
      if (next_node == cur) return hops;
      cur = next_node;
      ++hops;
    }
  }

  Kind kind_;
  std::vector<std::uint64_t> ids_;
  std::vector<std::uint32_t> fingers_;
  std::vector<Query> queries_;
  std::vector<std::uint32_t> chase_;
  std::uint32_t position_ = 0;  ///< where the chase continues
  volatile std::uint64_t sink_ = 0;
};

}  // namespace bench
