// Per-node routing state of a Cycloid participant.
//
// A 7-entry Cycloid node (paper Table 2) keeps:
//   * one cubical neighbour   (k-1, a_{d-1}..a_{k+1} !a_k x..x)
//   * two cyclic neighbours   (k-1, nearest cubical index >= / <= its own)
//   * inside leaf set         predecessor + successor on the local cycle
//   * outside leaf set        primary node of the preceding + succeeding
//                             remote cycles on the large cycle
// The 11-entry variant (paper Sec. 3.2) widens each leaf set to two
// predecessors and two successors; `leaf_width` generalizes that.
//
// The degree is constant, so the record holds all of it inline: a hop
// reads this record and nothing else of the node (DESIGN.md §19).
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <type_traits>

#include "core/id.hpp"
#include "dht/types.hpp"

namespace cycloid::ccc {

/// Widest leaf set a record holds: four predecessors and four successors
/// per leaf set, the 19-entry node of the leaf-set-width ablation.
inline constexpr int kMaxLeafWidth = 4;

struct CycloidNode {
  CccId id;

  // Proximity coordinates live on the shared per-handle latency plane
  // (dht/latency.hpp), not in node state: the proximity-aware
  // neighbour-selection extension and all latency accounting read
  // dht::proximity_coord/torus_latency directly.

  // Routing table (kNoNode when the pattern matches no participant, e.g. for
  // every node with cyclic index 0). These entries may go stale between
  // stabilizations; contacting a departed entry costs a timeout.
  dht::NodeHandle cubical_neighbor = dht::kNoNode;
  dht::NodeHandle cyclic_larger = dht::kNoNode;
  dht::NodeHandle cyclic_smaller = dht::kNoNode;

  // Leaf sets, nearest first, packed as inside_pred, inside_succ,
  // outside_pred, outside_succ with leaf_width entries each; the slots past
  // 4 * leaf_width hold kNoNode, and so do all of them until the first
  // leaf-set compute. Joins and graceful leaves repair leaf sets eagerly,
  // but an ungraceful departure leaves them stale like the routing table:
  // an entry may name a departed node until the next refresh.
  std::array<dht::NodeHandle, 4 * kMaxLeafWidth> leaves = [] {
    std::array<dht::NodeHandle, 4 * kMaxLeafWidth> empty;
    empty.fill(dht::kNoNode);
    return empty;
  }();

  // Each leaf set as a view of `leaves`: empty until the first leaf-set
  // compute.
  std::span<const dht::NodeHandle> inside_pred() const noexcept {
    return leaf_set(0);
  }
  std::span<const dht::NodeHandle> inside_succ() const noexcept {
    return leaf_set(1);
  }
  std::span<const dht::NodeHandle> outside_pred() const noexcept {
    return leaf_set(2);
  }
  std::span<const dht::NodeHandle> outside_succ() const noexcept {
    return leaf_set(3);
  }

  friend bool operator==(const CycloidNode&, const CycloidNode&) = default;

 private:
  /// Entries per leaf set: the network's leaf_width once the leaf sets are
  /// computed, 0 before.
  std::size_t leaf_width() const noexcept {
    std::size_t filled = 0;
    while (filled < leaves.size() && leaves[filled] != dht::kNoNode) ++filled;
    return filled / 4;
  }

  std::span<const dht::NodeHandle> leaf_set(std::size_t which) const noexcept {
    const std::size_t width = leaf_width();
    return {leaves.data() + which * width, width};
  }
};

static_assert(std::is_trivially_copyable_v<CycloidNode>);
static_assert(sizeof(CycloidNode) == 168);

}  // namespace cycloid::ccc
