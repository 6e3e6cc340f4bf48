// CycloidNetwork — the paper's constant-degree DHT, simulated message-level.
//
// The network holds every live node in ordered indexes (the global ring,
// whose contiguous runs are the local cycles, and one ring per cyclic
// level), executes the three-phase routing algorithm
// of paper Sec. 3.2 (ascending / descending / traverse cycle), and implements
// the self-organization protocol of Sec. 3.3: joins and graceful leaves
// repair leaf sets eagerly, while cubical/cyclic routing-table entries go
// stale until stabilization — exactly the failure model behind the paper's
// Sec. 4.3/4.4 experiments.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/id.hpp"
#include "core/node.hpp"
#include "dht/arena.hpp"
#include "dht/latency.hpp"
#include "dht/network.hpp"
#include "dht/sorted_ring.hpp"
#include "util/prefetch.hpp"
#include "util/rng.hpp"

namespace cycloid::ccc {

class CycloidNetwork final : public dht::ArenaNetwork<CycloidNode> {
 public:
  /// Largest dimension a network accepts: the position table costs
  /// 4 * d * 2^d bytes, 84 MB at d = 20.
  static constexpr int kMaxDimension = 20;

  /// An empty network over a d-dimensional CCC space. leaf_width 1 gives the
  /// paper's 7-entry node, leaf_width 2 the 11-entry variant, and at most
  /// kMaxLeafWidth fits in the record. `selection` picks the cubical
  /// neighbour among the nodes matching its pattern (the pattern leaves the
  /// low bits free, so there are many candidates — "the crucial difference
  /// from the traditional hypercube connection pattern", paper Sec. 2.1).
  CycloidNetwork(int dimension, int leaf_width = 1,
                 dht::NeighborSelection selection =
                     dht::NeighborSelection::kClosestSuffix);

  /// The complete network: all d * 2^d identifiers populated. Built in
  /// bulk mode: membership first, then one stabilize pass over `threads`
  /// workers (byte-identical to the incremental build at any count).
  static std::unique_ptr<CycloidNetwork> build_complete(
      int dimension, int leaf_width = 1,
      dht::NeighborSelection selection =
          dht::NeighborSelection::kClosestSuffix,
      int threads = 1);

  /// A network of `count` nodes at distinct uniform-random identifiers
  /// (bulk mode; the RNG draw sequence matches the incremental builder).
  static std::unique_ptr<CycloidNetwork> build_random(
      int dimension, std::size_t count, util::Rng& rng, int leaf_width = 1,
      dht::NeighborSelection selection =
          dht::NeighborSelection::kClosestSuffix,
      int threads = 1);

  const CccSpace& space() const noexcept { return space_; }
  int leaf_width() const noexcept { return leaf_width_; }

  /// Handle <-> id mapping (handle packs (cubical << 8) | cyclic).
  static dht::NodeHandle handle_of(const CccId& id) noexcept {
    return (id.cubical << 8) | id.cyclic;
  }
  static CccId id_of(dht::NodeHandle handle) noexcept {
    return CccId{static_cast<std::uint32_t>(handle & 0xff), handle >> 8};
  }

  /// Direct insertion at a specific identifier (returns false if occupied).
  /// Used by builders and tests; join() is the protocol-level entry point.
  bool insert(const CccId& id);

  // node_state(handle) / node_of(handle) / node_at(slot) come from the
  // shared storage plane (dht::ArenaNetwork<CycloidNode>): node objects
  // live in the engine's slot-dense arena, not an overlay-owned map.

  /// Key -> CCC id mapping for this space.
  CccId key_id(dht::KeyHash key) const noexcept {
    return space_.id_from_hash(key);
  }

  /// Owner of an explicit CCC position (ground truth, global knowledge).
  dht::NodeHandle owner_of_id(const CccId& key) const;

  /// slot_of by the ring-position table: the registry slot of `handle`, or
  /// kNoSlot when no live node holds its position. One read of a dense
  /// array, no hash probe: the step policy's liveness check and next-slot
  /// resolution (DESIGN.md §19).
  std::size_t position_slot(dht::NodeHandle handle) const noexcept {
    const std::uint64_t pos = position_of(handle);
    if (pos == kNoPosition) return kNoSlot;
    const std::uint32_t slot = slot_by_position_[pos];
    return slot == kNoPositionSlot ? kNoSlot : slot;
  }

  /// Best-effort prefetch of the position-table entry position_slot(handle)
  /// reads (the step policy's stage-2 hint); a no-op for a handle that
  /// names no position. Never changes routing results.
  void prefetch_position(dht::NodeHandle handle) const noexcept {
    const std::uint64_t pos = position_of(handle);
    if (pos != kNoPosition) {
      util::prefetch_lines(&slot_by_position_[pos], sizeof(std::uint32_t));
    }
  }

  /// Structural invariants: the registry, the arena, the global ring and
  /// the level rings hold the same members, each ring in sorted order; the
  /// position table holds slot_of(h) at each live node's position and is
  /// empty everywhere else; each record fills exactly its first
  /// 4 * leaf_width leaf slots.
  bool check_invariants() const override;

  /// True when key's cycle lies within the cubical span covered by the
  /// node's outside leaf set (the paper's "target ID is within the leaf
  /// sets" traverse-phase trigger).
  bool key_in_leaf_range(const CycloidNode& node, const CccId& key) const;

  // DhtNetwork interface -----------------------------------------------
  // node_handles() uses the base registry implementation: a handle packs
  // (cubical << 8) | cyclic and cyclic < d <= 32, so ascending handle order
  // is exactly ascending (cubical, cyclic) — the ring order (this is also
  // the order the maintenance engine's departure sampling draws in).
  // leave / fail_* / stabilize_* are DhtNetwork's; the overlay's repair
  // logic is this class's maintenance hooks (network.cpp).
  std::string name() const override;
  std::vector<std::string> phase_names() const override;
  dht::NodeHandle owner_of(dht::KeyHash key) const override;
  dht::NodeHandle join(std::uint64_t seed) override;
  void route_batch(const dht::NodeHandle* froms, const dht::KeyHash* keys,
                   std::size_t count, int width, dht::LookupMetrics& sink,
                   dht::LookupResult* results, dht::BatchScratch& lanes,
                   const dht::RouterOptions& options) const override;

  /// Routing-phase slots in LookupResult::phase_hops.
  enum Phase : std::size_t { kAscend = 0, kDescend = 1, kTraverse = 2 };

 private:
  // Maintenance hooks (DhtNetwork's contract).
  void on_join(dht::NodeHandle node) override;
  void on_graceful_leave(dht::NodeHandle node) override;
  void on_vanish(dht::NodeHandle node) override;
  void repair_after_mass_leave() override;
  void refresh(dht::NodeHandle node) override;
  void before_pass() override;
  void dirty(dht::MembershipEvent event, dht::NodeHandle node) override;
  /// Mark the level-(k+1) nodes whose cubical or cyclic routing entries
  /// the change at `id` = (cubical a, cyclic k) can perturb.
  void mark_routing_referencers(const CccId& id, bool join);

  /// Compute the routing-table entries of `node` from the live membership
  /// (the paper's "local-remote" search, idealized as stabilization does).
  void compute_routing_table(CycloidNode& node);

  /// Compute exact leaf sets of `node` from the live membership.
  void compute_leaf_sets(CycloidNode& node);

  /// Recompute leaf sets of every node in the (2 * leaf_width + 1)-cycle
  /// neighbourhood around cubical index `cubical` — the set of nodes whose
  /// leaf sets a join/leave at that cycle can affect.
  void refresh_leafsets_around(std::uint64_t cubical);

  /// That neighbourhood: the cycle at `cubical` (if populated) plus
  /// leaf_width populated cycles on each side, ascending and deduplicated.
  std::vector<std::uint64_t> affected_cycles(std::uint64_t cubical) const;

  /// The local cycle at `cubical` is the ring index run [cycle_begin,
  /// cycle_end) — empty when the cycle is unpopulated; cycle_begin is then
  /// the first index of the next populated cycle.
  std::size_t cycle_begin(std::uint64_t cubical) const {
    return ring_.lower_bound(cubical * space_.dimension());
  }
  std::size_t cycle_end(std::uint64_t cubical) const {
    return ring_.lower_bound((cubical + 1) * space_.dimension());
  }
  std::uint64_t cubical_at(std::size_t index) const {
    return space_.from_ring_position(ring_.key(index)).cubical;
  }

  /// Primary node (largest cyclic index) of the cycle at `cubical`.
  dht::NodeHandle primary_of_cycle(std::uint64_t cubical) const;

  /// Nearest populated cubical indices strictly before/after `cubical` on
  /// the large cycle (wrapping; returns `cubical` itself when it is the only
  /// populated cycle).
  std::uint64_t preceding_cycle(std::uint64_t cubical) const;
  std::uint64_t succeeding_cycle(std::uint64_t cubical) const;

  void unlink(dht::NodeHandle handle);

  /// Ring position (cubical * d + cyclic) named by `handle`, kNoPosition
  /// when its fields lie outside the space (kNoNode among them).
  static constexpr std::uint64_t kNoPosition = ~std::uint64_t{0};
  std::uint64_t position_of(dht::NodeHandle handle) const noexcept {
    const std::uint64_t cyclic = handle & 0xff;
    const std::uint64_t cubical = handle >> 8;
    const auto d = static_cast<std::uint64_t>(space_.dimension());
    if (cyclic >= d || cubical >= space_.cube_size()) return kNoPosition;
    return cubical * d + cyclic;
  }

  CccSpace space_;
  int leaf_width_;
  dht::NeighborSelection selection_;

  /// The large cycle: every node keyed by ring position, i.e. ordered by
  /// (cubical, cyclic), so each local cycle is one contiguous run.
  dht::SortedRing<std::uint64_t> ring_;
  /// Per cyclic level k: the level-k nodes keyed by cubical index.
  std::vector<dht::SortedRing<std::uint64_t>> by_level_;

  /// Empty entry of slot_by_position_.
  static constexpr std::uint32_t kNoPositionSlot = ~std::uint32_t{0};
  /// Registry slot of the node at each ring position (cubical * d +
  /// cyclic), kNoPositionSlot where no node sits: d * 2^d entries. insert
  /// writes the newcomer's entry; unlink clears the departed node's and
  /// re-points the entry of the tail node the registry swap-removes into
  /// its slot.
  std::vector<std::uint32_t> slot_by_position_;
};

}  // namespace cycloid::ccc
