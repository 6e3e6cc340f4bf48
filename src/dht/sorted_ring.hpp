// The ordered membership index behind every ring overlay (DESIGN.md §15):
// keys and their NodeHandles in two parallel vectors sorted by key, so a
// query is one branch-free binary search over the contiguous keys.
//
// Bulk/settle contract: a bulk insert appends in O(1); the overlay's
// before_pass maintenance hook (DhtNetwork) calls settle() — one sort —
// before finish_bulk's stabilize pass queries the ring. Queries trap while the ring
// is unsorted, and settle() traps on a duplicate key: an unsorted ring
// cannot be probed for a collision, so that trap replaces the per-insert
// probe for keys the handle registry does not deduplicate (Viceroy's ids).
// Outside bulk mode insert and erase memmove O(n) per call.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "dht/types.hpp"
#include "util/contracts.hpp"

namespace cycloid::dht {

template <typename Key>
class SortedRing {
 public:
  std::size_t size() const noexcept { return keys_.size(); }
  bool empty() const noexcept { return keys_.empty(); }

  /// Add `key` -> `handle`: appended with `bulk` (see above), otherwise
  /// inserted in place, and then `key` must not be present.
  void insert(Key key, NodeHandle handle, bool bulk) {
    if (bulk) {
      if (!keys_.empty() && !(keys_.back() < key)) sorted_ = false;
      keys_.push_back(key);
      handles_.push_back(handle);
      return;
    }
    const std::size_t at = lower_bound(key);
    CYCLOID_EXPECTS(at == size() || key < keys_[at]);  // duplicate key
    keys_.insert(keys_.begin() + static_cast<std::ptrdiff_t>(at), key);
    handles_.insert(handles_.begin() + static_cast<std::ptrdiff_t>(at), handle);
  }

  /// Remove `key`, which must be present.
  void erase(Key key) {
    const auto at = static_cast<std::ptrdiff_t>(index_of(key));
    keys_.erase(keys_.begin() + at);
    handles_.erase(handles_.begin() + at);
  }

  /// Restore key order after bulk appends; traps on a duplicate key.
  void settle() {
    if (sorted_) return;
    std::vector<std::pair<Key, NodeHandle>> pairs(size());
    for (std::size_t i = 0; i < size(); ++i) pairs[i] = {keys_[i], handles_[i]};
    std::sort(pairs.begin(), pairs.end());
    for (std::size_t i = 0; i < size(); ++i) {
      CYCLOID_EXPECTS(i == 0 || pairs[i - 1].first < pairs[i].first);
      keys_[i] = pairs[i].first;
      handles_[i] = pairs[i].second;
    }
    sorted_ = true;
  }

  /// Index of the first key >= `key` (size() when none).
  std::size_t lower_bound(Key key) const {
    return partition_point([key](Key x) { return x < key; });
  }
  /// Index of the first key > `key` (size() when none).
  std::size_t upper_bound(Key key) const {
    return partition_point([key](Key x) { return !(key < x); });
  }
  /// Index of `key`, which must be present.
  std::size_t index_of(Key key) const {
    const std::size_t at = lower_bound(key);
    CYCLOID_EXPECTS(at < size() && keys_[at] == key);  // absent key
    return at;
  }
  bool contains(Key key) const {
    const std::size_t at = lower_bound(key);
    return at < size() && keys_[at] == key;
  }

  Key key(std::size_t i) const {
    CYCLOID_EXPECTS(sorted_ && i < size());
    return keys_[i];
  }
  NodeHandle handle(std::size_t i) const {
    CYCLOID_EXPECTS(sorted_ && i < size());
    return handles_[i];
  }
  /// All handles in key order.
  const std::vector<NodeHandle>& handles() const {
    CYCLOID_EXPECTS(sorted_);
    return handles_;
  }

  /// Neighbouring indices with wrap. prev(size()) is the last index, so
  /// prev(lower_bound(k)) is always the last member strictly before k.
  std::size_t next(std::size_t i) const noexcept {
    return i + 1 >= size() ? 0 : i + 1;
  }
  std::size_t prev(std::size_t i) const noexcept {
    return (i == 0 ? size() : i) - 1;
  }

  /// First member at or clockwise-after `key`, wrapping past the top.
  NodeHandle successor(Key key) const {
    CYCLOID_EXPECTS(!empty());
    const std::size_t at = lower_bound(key);
    return handles_[at == size() ? 0 : at];
  }
  /// Last member strictly before `key`, wrapping below the bottom.
  NodeHandle predecessor(Key key) const {
    CYCLOID_EXPECTS(!empty());
    return handles_[prev(lower_bound(key))];
  }
  /// Last member at or before `key`, wrapping below the bottom.
  NodeHandle predecessor_incl(Key key) const {
    CYCLOID_EXPECTS(!empty());
    return handles_[prev(upper_bound(key))];
  }

  /// True when the keys ascend strictly and filed(key, handle) holds for
  /// every entry: the shape of each overlay's membership invariant
  /// (check_invariants). An unsorted bulk ring reads false, not a trap.
  template <typename Filed>
  bool all_ascending(Filed&& filed) const {
    for (std::size_t i = 0; i < size(); ++i) {
      if (i > 0 && !(keys_[i - 1] < keys_[i])) return false;
      if (!filed(keys_[i], handles_[i])) return false;
    }
    return true;
  }

  /// Member whose key is nearest `target` (itself in [lo, hi)) among the
  /// keys in [lo, hi), ties going to the larger key; kNoNode when no key
  /// lies in the window. No wrap: the window is a prefix-routing window.
  NodeHandle nearest_in(Key lo, Key hi, Key target) const {
    const std::size_t at = lower_bound(target);
    NodeHandle best = kNoNode;
    Key best_gap{};
    if (at < size() && keys_[at] < hi) {
      best = handles_[at];
      best_gap = keys_[at] - target;
    }
    if (at > 0 && keys_[at - 1] >= lo &&
        (best == kNoNode || target - keys_[at - 1] < best_gap)) {
      best = handles_[at - 1];
    }
    return best;
  }

 private:
  /// Index of the first key for which `before` is false, `before` being
  /// true on a prefix of the keys: a halving search whose step is a
  /// conditional add, not a branch, so a query costs ~log2(n) dependent
  /// loads and no mispredictions (DESIGN.md §15).
  template <typename Before>
  std::size_t partition_point(Before before) const {
    CYCLOID_EXPECTS(sorted_);
    if (keys_.empty()) return 0;
    // The answer lies in [base, base + n] throughout.
    const Key* base = keys_.data();
    std::size_t n = keys_.size();
    while (n > 1) {
      const std::size_t half = n / 2;
      base += before(base[half - 1]) * half;
      n -= half;
    }
    return static_cast<std::size_t>(base - keys_.data()) + before(*base);
  }

  std::vector<Key> keys_;
  std::vector<NodeHandle> handles_;
  bool sorted_ = true;
};

/// The membership invariant of a ring whose handles are its keys (Chord,
/// Koorde, Pastry): every arena record sits at its own handle's slot, and
/// `ring` lists exactly `net`'s n members in ascending order. Each ring
/// handle is a member equal to its key, the keys are distinct and there
/// are n of them, so no member is missing.
template <typename Net>
bool ring_matches_registry(const Net& net,
                           const SortedRing<std::uint64_t>& ring) {
  const std::size_t n = net.node_count();
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (net.node_at(slot).id != net.handle_at(slot)) return false;
  }
  return ring.size() == n &&
         ring.all_ascending([&](std::uint64_t key, NodeHandle handle) {
           return handle == key && net.contains(handle);
         });
}

}  // namespace cycloid::dht
