// Cycloid / CCC identifiers and the key-assignment metric.
//
// A d-dimensional cube-connected-cycles graph has d * 2^d vertices, each
// named by a pair (k, a_{d-1} ... a_0): a *cyclic* index k in [0, d) locating
// the vertex on its local cycle and a *cubical* index a in [0, 2^d) naming
// the cycle (paper Sec. 3.1, Fig. 1). Keys hash into the same space: for a
// 64-bit hash h, k = h mod d and a = (h / d) mod 2^d.
//
// "Numerical closeness" — the paper's key-assignment rule and the metric of
// its traverse-cycle routing phase — compares cubical distance first, then
// cyclic distance, breaking ties clockwise ("the key's successor will be
// responsible"). closeness_rank() below, and id_closer() on top of it, is
// the single source of truth for that order; both owner_of() and the
// routing fallback use it.
#pragma once

#include <cstdint>
#include <string>

#include "util/bits.hpp"
#include "util/contracts.hpp"

namespace cycloid::ccc {

/// Identifier of a node or key position in a d-dimensional CCC space.
struct CccId {
  std::uint32_t cyclic = 0;   // k in [0, d)
  std::uint64_t cubical = 0;  // a in [0, 2^d)

  friend bool operator==(const CccId&, const CccId&) = default;
};

/// Geometry of a d-dimensional CCC identifier space.
class CccSpace {
 public:
  explicit constexpr CccSpace(int dimension)
      : d_(dimension), cube_size_(1ULL << dimension) {
    CYCLOID_EXPECTS(dimension >= 1 && dimension <= 32);
  }

  constexpr int dimension() const noexcept { return d_; }
  constexpr std::uint64_t cube_size() const noexcept { return cube_size_; }
  /// Total identifier positions: d * 2^d.
  constexpr std::uint64_t size() const noexcept {
    return static_cast<std::uint64_t>(d_) * cube_size_;
  }

  constexpr bool valid(const CccId& id) const noexcept {
    return id.cyclic < static_cast<std::uint32_t>(d_) &&
           id.cubical < cube_size_;
  }

  /// Map a 64-bit consistent hash into the space (paper Sec. 3.1).
  constexpr CccId id_from_hash(std::uint64_t h) const noexcept {
    const auto d = static_cast<std::uint64_t>(d_);
    return CccId{static_cast<std::uint32_t>(h % d), (h / d) % cube_size_};
  }

  /// Position on the global ring ordered by (cubical, cyclic) — the order in
  /// which local cycles are chained into the paper's "large cycle".
  constexpr std::uint64_t ring_position(const CccId& id) const noexcept {
    CYCLOID_EXPECTS(valid(id));
    return id.cubical * static_cast<std::uint64_t>(d_) + id.cyclic;
  }

  constexpr CccId from_ring_position(std::uint64_t pos) const noexcept {
    CYCLOID_EXPECTS(pos < size());
    const auto d = static_cast<std::uint64_t>(d_);
    return CccId{static_cast<std::uint32_t>(pos % d), pos / d};
  }

  /// Shortest circular distance between cubical indices.
  constexpr std::uint64_t cubical_distance(std::uint64_t a,
                                           std::uint64_t b) const noexcept {
    return util::circular_distance(a, b, cube_size_);
  }

  /// Shortest circular distance between cyclic indices (mod d).
  constexpr std::uint32_t cyclic_distance(std::uint32_t x,
                                          std::uint32_t y) const noexcept {
    return static_cast<std::uint32_t>(
        util::circular_distance(x, y, static_cast<std::uint64_t>(d_)));
  }

  /// Most significant differing bit between two cubical indices, or -1 when
  /// equal — the MSDB driving the routing phases (paper Sec. 3.2).
  constexpr int msdb(std::uint64_t a, std::uint64_t b) const noexcept {
    return util::msdb(a, b);
  }

  /// Strict weak order: is candidate x closer to `key` than candidate y?
  /// Tuple compared: (cubical distance, clockwise-side preference,
  /// cyclic distance, clockwise-side preference). Antisymmetric and total
  /// over distinct ids, so every key has a unique owner.
  constexpr bool id_closer(const CccId& key, const CccId& x,
                           const CccId& y) const {
    return closeness_rank(key, x) < closeness_rank(key, y);
  }

  /// Rank of x relative to key under the id_closer order, packed into one
  /// integer so callers can memoize comparisons cheaply.
  constexpr std::uint64_t closeness_rank(const CccId& key,
                                         const CccId& x) const {
    CYCLOID_EXPECTS(valid(key) && valid(x));

    const std::uint64_t cub_dist = cubical_distance(key.cubical, x.cubical);
    // Prefer the clockwise side on equal cubical distance: the candidate
    // whose cubical index follows the key's is the key's "successor" cycle.
    const std::uint64_t cub_side =
        (cub_dist == 0 || util::clockwise_distance(key.cubical, x.cubical,
                                                   cube_size_) == cub_dist)
            ? 0
            : 1;

    const std::uint64_t cyc_dist = cyclic_distance(key.cyclic, x.cyclic);
    const std::uint64_t cyc_side =
        (cyc_dist == 0 ||
         util::clockwise_distance(key.cyclic, x.cyclic,
                                  static_cast<std::uint64_t>(d_)) == cyc_dist)
            ? 0
            : 1;

    // cub_dist <= 2^31 for d <= 32; cyc_dist < d <= 32. Lexicographic
    // packing.
    return (cub_dist << 9) | (cub_side << 8) | (cyc_dist << 1) | cyc_side;
  }

 private:
  int d_;
  std::uint64_t cube_size_;
};

/// Render "(k, b_{d-1}...b_0)" with the cubical index in binary, matching the
/// paper's notation (e.g. "(4, 10110110)").
std::string to_string(const CccId& id, int dimension);

}  // namespace cycloid::ccc
