// Slot-dense node storage plane shared by all overlays.
//
// ArenaNetwork owns every overlay's node records: they live by value in one
// contiguous vector whose indices are exactly the DhtNetwork handle-registry
// slots (slot_of/handle_at), so
//
//   - handle -> node resolution is one SlotIndex probe + an array index
//     (node_of), and
//   - once the router knows the current slot, reaching the node state is a
//     bare array index with no hashing at all (node_at) — the hop-loop path.
//
// Slot identity contract: create_node/destroy_node mirror
// register_handle/unregister_handle exactly, so arena_[s] is always the
// state of handle_at(s). Removal is swap-remove — the tail node moves into
// the vacated slot — which means slots are stable *between* membership
// changes but a departure may reassign one; anything caching slots (the
// router's carried current slot) must not span a membership change, the
// same contract the registry already imposes (DESIGN.md §13). No metric is
// kept by slot.
//
// NodeT must be movable; pointers/references into the arena are invalidated
// by create_node (vector growth) and destroy_node (swap-remove), so
// mutation-plane code re-resolves after any membership change.
#pragma once

#include <utility>
#include <vector>

#include "dht/network.hpp"
#include "dht/types.hpp"
#include "util/contracts.hpp"
#include "util/prefetch.hpp"

namespace cycloid::dht {

template <typename NodeT>
class ArenaNetwork : public DhtNetwork {
 public:
  /// Checked node-state accessor: traps when `node` is not a live member
  /// (the single replacement for the per-overlay node_state duplicates;
  /// pinned by death tests). Use node_of when absence is an expected case.
  const NodeT& node_state(NodeHandle node) const {
    const NodeT* state = node_of(node);
    CYCLOID_EXPECTS(state != nullptr);
    return *state;
  }

  /// Node state for a live handle, nullptr for a departed/unknown one.
  /// One SlotIndex probe + an array index.
  const NodeT* node_of(NodeHandle node) const {
    const std::size_t slot = slot_of(node);
    return slot == kNoSlot ? nullptr : &arena_[slot];
  }

  /// Node state at a live registry slot — the hop-loop accessor: no
  /// hashing, just a bounds-checked array index. `slot` must come from
  /// slot_of/handle_at against the *current* membership.
  const NodeT& node_at(std::size_t slot) const {
    CYCLOID_EXPECTS(slot < arena_.size());
    return arena_[slot];
  }

  /// Best-effort prefetch of the node record at `slot` — the stage-1 hint
  /// (a step policy's optional prefetch hook) of the Chord, Koorde and
  /// Pastry step policies, the overlays where it measurably pays (DESIGN.md
  /// Sec. 14): pure address arithmetic into the arena, no dereference, so
  /// it can run the moment the batch router resolves a lane's next slot.
  /// Out-of-range slots (including kNoSlot) are silent no-ops. Purely a
  /// performance hint: never changes routing results.
  void prefetch_node(std::size_t slot) const noexcept {
    if (slot < arena_.size()) {
      util::prefetch_lines(&arena_[slot], sizeof(NodeT));
    }
  }

 protected:
  NodeT* node_of(NodeHandle node) {
    return const_cast<NodeT*>(std::as_const(*this).node_of(node));
  }

  NodeT& node_at(std::size_t slot) {
    CYCLOID_EXPECTS(slot < arena_.size());
    return arena_[slot];
  }

  /// Room for `count` node records, so a builder that knows its final size
  /// fills the arena without a vector doubling, which would briefly hold
  /// the old and the new copy of every record.
  void reserve_nodes(std::size_t count) { arena_.reserve(count); }

  /// Register `node` and append its default-constructed state at the new
  /// tail slot (keeping arena and registry index-aligned). Returns the
  /// state for the overlay to fill in. The handle must not be a member.
  NodeT& create_node(NodeHandle node) {
    register_handle(node);
    return arena_.emplace_back();
  }

  /// Unregister `node` and swap-remove its state: the tail node's state
  /// moves into the vacated slot, exactly mirroring the registry's
  /// swap-remove so the two stay index-aligned. The handle must be a
  /// member.
  void destroy_node(NodeHandle node) {
    const std::size_t slot = slot_of(node);
    CYCLOID_EXPECTS(slot != kNoSlot);
    unregister_handle(node);
    if (slot + 1 != arena_.size()) arena_[slot] = std::move(arena_.back());
    arena_.pop_back();
  }

 private:
  /// Node states, index-aligned with the handle registry's slots.
  std::vector<NodeT> arena_;
};

}  // namespace cycloid::dht
