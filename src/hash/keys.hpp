// Consistent-hashing key derivation.
//
// Overlays reduce a 64-bit hash into their own identifier spaces; this header
// centralizes the reduction so the load-balance experiments (paper Figs. 8-10)
// compare the *assignment policies* of the DHTs rather than accidental
// differences in how keys were generated.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "hash/sha1.hpp"
#include "util/contracts.hpp"

namespace cycloid::hash {

/// 64-bit consistent hash of a textual name (SHA-1 truncation, like Chord).
inline std::uint64_t hash_name(std::string_view name) noexcept {
  return Sha1::digest64(name);
}

/// 64-bit hash of a numeric key ("key-<n>"), used by workload generators.
std::uint64_t hash_index(std::uint64_t index);

/// Reduce a 64-bit hash into [0, space_size). For the power-of-two spaces the
/// overlays use, this is an unbiased modulo.
inline std::uint64_t reduce(std::uint64_t h, std::uint64_t space_size) noexcept {
  CYCLOID_EXPECTS(space_size > 0);
  return h % space_size;
}

/// Reduce a 64-bit hash to a real identifier in [0, 1) — Viceroy's ID space.
inline double reduce_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace cycloid::hash
