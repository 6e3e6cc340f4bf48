// Deterministic pseudo-random number generation for reproducible simulations.
//
// All experiments in this repository are seeded, so every bench binary prints
// the same table on every run. We use splitmix64 for seeding and xoshiro256**
// for the stream (public-domain algorithms by Blackman & Vigna), rather than
// std::mt19937, because the state is tiny, the generator is fast, and the
// output is identical across standard-library implementations.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "util/contracts.hpp"

namespace cycloid::util {

/// One step of the splitmix64 sequence; also usable as a 64-bit mixer.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless mix of a 64-bit value (useful for hashing counters into IDs).
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

/// xoshiro256** 1.0 — the general-purpose generator used everywhere here.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eedc0de1234abcdULL) noexcept {
    reseed(seed);
  }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift reduction.
  std::uint64_t below(std::uint64_t bound) noexcept {
    CYCLOID_EXPECTS(bound > 0);
    // 128-bit multiply avoids the modulo bias of `operator() % bound`.
    const unsigned __int128 product =
        static_cast<unsigned __int128>((*this)()) * bound;
    return static_cast<std::uint64_t>(product >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept {
    CYCLOID_EXPECTS(lo <= hi);
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) noexcept { return uniform01() < p; }

  /// Exponentially distributed waiting time with the given rate (events/sec).
  /// Used by the Poisson churn and lookup processes in the simulator.
  double exponential(double rate) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace cycloid::util
