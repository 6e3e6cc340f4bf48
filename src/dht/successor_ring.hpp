// The successor ring Chord and Koorde share (DESIGN.md §10, §15).
//
// Both overlays place nodes on a 2^bits identifier circle, store each key at
// its successor, and keep a predecessor and a successor list that joins and
// graceful leaves repair at once. Chord adds fingers, Koorde a de Bruijn
// pointer and its backups. SuccessorRing<NodeT> holds the shared part: the
// identifier space, the membership ring keyed by id (a handle is its id),
// the owner oracle, the successor list (relink) and the neighbourhood a
// membership change perturbs (walk_neighbourhood). It charges nothing: it
// reports what changed, and each overlay decides what that costs under the
// paper's fifth metric.
#pragma once

#include <cstdint>
#include <vector>

#include "dht/arena.hpp"
#include "dht/sorted_ring.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace cycloid::dht {

/// The ring fields of a node record; Chord's and Koorde's records extend it.
struct RingNode {
  std::uint64_t id = 0;
  NodeHandle predecessor = kNoNode;
  /// successors[0] is the immediate successor; kept repaired by joins and
  /// graceful leaves, stale after a silent departure until a refresh.
  std::vector<NodeHandle> successors;
};

/// What relink_around changed: how many of the members before the event
/// got new ring links, and whether the member after it got a new
/// predecessor.
struct RingRepair {
  std::uint64_t before = 0;
  bool after = false;
};

template <typename NodeT>
class SuccessorRing : public ArenaNetwork<NodeT> {
 public:
  int bits() const noexcept { return bits_; }
  std::uint64_t space_size() const noexcept { return space_size_; }

  /// Direct insertion at a specific identifier (false if occupied). Outside
  /// bulk construction the join repair runs (the overlay's on_join).
  bool insert(std::uint64_t id) {
    CYCLOID_EXPECTS(id < space_size_);
    if (this->contains(id)) return false;
    this->create_node(id).id = id;
    ring_.insert(id, id, this->bulk_building());
    this->notify_joined(id);
    return true;
  }

  NodeHandle join(std::uint64_t seed) override {
    const std::uint64_t id = util::mix64(seed) % space_size_;
    return insert(id) ? id : kNoNode;
  }

  /// A key lives at its successor on the ring.
  NodeHandle owner_of(KeyHash key) const override {
    return ring_.successor(key % space_size_);
  }

  /// The registry, the arena and the ring hold the same members, the ring
  /// in ascending order (ring_matches_registry).
  bool check_invariants() const override {
    return ring_matches_registry(*this, ring_);
  }

 protected:
  SuccessorRing(int bits, int successor_list_length)
      : bits_(bits),
        space_size_(1ULL << bits),
        successor_list_length_(successor_list_length) {
    CYCLOID_EXPECTS(bits >= 1 && bits <= 32);
    CYCLOID_EXPECTS(successor_list_length >= 1);
  }

  /// Live identifiers (id == handle), the ground truth behind owner_of and
  /// every state recompute.
  const SortedRing<std::uint64_t>& ring() const noexcept { return ring_; }

  /// Bulk-insert uniform-random identifiers until `count` are members, then
  /// stabilize once over `threads` workers (the builders' loop).
  void populate_random(std::size_t count, util::Rng& rng, int threads) {
    CYCLOID_EXPECTS(count >= 1 && count <= space_size_);
    this->begin_bulk();
    while (this->node_count() < count) insert(rng.below(space_size_));
    this->finish_bulk(threads);
  }

  /// Bulk-insert every identifier, then stabilize once.
  void populate_complete(int threads) {
    this->begin_bulk();
    for (std::uint64_t id = 0; id < space_size_; ++id) insert(id);
    this->finish_bulk(threads);
  }

  /// Remove a member from the ring and the arena.
  void unlink(NodeHandle handle) {
    CYCLOID_EXPECTS(this->contains(handle));
    ring_.erase(handle);
    this->destroy_node(handle);
  }

  /// Set `node`'s predecessor and successor list from the settled ring, in
  /// place; true when either changed. Writes only `node`, so the parallel
  /// refresh pass may call it.
  bool relink(RingNode& node) const {
    std::size_t at = ring_.index_of(node.id);
    const NodeHandle predecessor = ring_.handle(ring_.prev(at));
    bool changed = node.predecessor != predecessor;
    node.predecessor = predecessor;
    const auto length = static_cast<std::size_t>(successor_list_length_);
    if (node.successors.size() != length) {
      node.successors.resize(length);
      changed = true;
    }
    for (NodeHandle& successor : node.successors) {
      at = ring_.next(at);
      const NodeHandle next = ring_.handle(at);
      changed = changed || successor != next;
      successor = next;
    }
    return changed;
  }

  /// Relink every member (a graceful mass departure's repair); returns how
  /// many changed.
  std::uint64_t relink_all() {
    std::uint64_t changed = 0;
    for (std::size_t slot = 0; slot < this->node_count(); ++slot) {
      changed += relink(this->node_at(slot)) ? 1 : 0;
    }
    return changed;
  }

  /// The members whose ring links a membership change at `id` perturbs:
  /// the successor_list_length + 1 members before `id`, nearest first (a
  /// ring that small is revisited), then the first member strictly after
  /// `id` (after a join, `id` itself must not shadow it). visit(handle,
  /// after) sees each in that order, `after` true for the last. The ring
  /// must not be empty.
  template <typename Visit>
  void walk_neighbourhood(std::uint64_t id, Visit&& visit) const {
    std::uint64_t cursor = id;
    for (int i = 0; i <= successor_list_length_; ++i) {
      cursor = ring_.predecessor(cursor);  // handles are ids
      visit(cursor, false);
    }
    visit(ring_.successor((id + 1) % space_size_), true);
  }

  /// The eager ring repair of a join or graceful leave at `id`: relink the
  /// members before `id`, and tell the member after it its new
  /// predecessor. That member's successor list is not rebuilt: a change at
  /// `id` reaches it only on a ring so small that the member is also one
  /// of those before `id`, relinked already, and a list an earlier silent
  /// departure left stale stays stale until a refresh.
  RingRepair relink_around(std::uint64_t id) {
    RingRepair repair;
    if (ring_.empty()) return repair;
    walk_neighbourhood(id, [&](NodeHandle handle, bool after) {
      NodeT* node = this->node_of(handle);
      CYCLOID_ASSERT(node != nullptr);
      if (!after) {
        repair.before += relink(*node) ? 1 : 0;
        return;
      }
      const NodeHandle predecessor = ring_.predecessor(node->id);
      repair.after = node->predecessor != predecessor;
      node->predecessor = predecessor;
    });
    return repair;
  }

  /// The ring part of a dirty() hook: joins and graceful leaves repair the
  /// ring links at once (relink_around, or relink_all after a mass
  /// departure), so only a vanish leaves them stale, in the neighbourhood
  /// relink_around would have walked.
  void mark_ring(MembershipEvent event, std::uint64_t id) {
    if (event != MembershipEvent::kVanish) return;
    walk_neighbourhood(id, [this](NodeHandle handle, bool) {
      this->mark_dirty(handle);
    });
  }

 private:
  void before_pass() override { ring_.settle(); }
  /// A silent departure: nobody is told, so every link to it stays stale.
  void on_vanish(NodeHandle node) override { unlink(node); }

  int bits_;
  std::uint64_t space_size_;
  int successor_list_length_;
  SortedRing<std::uint64_t> ring_;
};

}  // namespace cycloid::dht
