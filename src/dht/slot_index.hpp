// Open-addressing handle -> slot map for the lookup hot path.
//
// The dense handle registry (DhtNetwork) needs one hash probe per liveness
// check and per handle -> slot resolution, and those probes sit inside the
// router's hop loop. std::unordered_map pays a modulo, a bucket pointer
// chase, and a node allocation per entry; SlotIndex stores (handle, slot)
// pairs flat in one power-of-two table with linear probing, so the common
// probe is one multiply, one shift, and a short contiguous scan.
//
// Design notes:
//   - keys are NodeHandles and kNoNode is reserved as the empty-bucket
//     sentinel (no overlay ever issues it as a live handle; insert traps);
//   - Fibonacci hashing (multiply by 2^64 / phi, take the top bits) spreads
//     the structured handle encodings — Cycloid's (cubical << 8) | cyclic,
//     CAN/Viceroy's small serials — across the table;
//   - erase uses backward-shift deletion instead of tombstones, so probe
//     sequences never degrade under churn (the fig11/fig12 workloads);
//   - load factor is capped at 1/2: probes stay short and the table of
//     16-byte pairs still costs less than unordered_map's per-node heap.
//
// Pointers/references into the table are invalidated by rehashes, so no
// caller keeps one: DhtNetwork owns the index and every probe goes through
// it.
#pragma once

#include <cstdint>
#include <vector>

#include "dht/types.hpp"
#include "util/contracts.hpp"

namespace cycloid::dht {

class SlotIndex {
 public:
  SlotIndex() = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Slot stored for `key`, or kNoSlot when absent. The hot-path probe.
  std::size_t lookup(NodeHandle key) const noexcept {
    if (size_ == 0) return kNoSlot;
    std::size_t i = bucket_of(key);
    while (true) {
      const Entry& e = table_[i];
      if (e.key == key) return e.slot;
      if (e.key == kNoNode) return kNoSlot;
      i = next(i);
    }
  }

  bool contains(NodeHandle key) const noexcept {
    return lookup(key) != kNoSlot;
  }

  /// Insert a new key. The key must not be present and must not be the
  /// reserved kNoNode sentinel.
  void insert(NodeHandle key, std::size_t slot) {
    CYCLOID_EXPECTS(key != kNoNode);
    if ((size_ + 1) * 2 > table_.size()) grow();
    std::size_t i = bucket_of(key);
    while (table_[i].key != kNoNode) {
      CYCLOID_EXPECTS(table_[i].key != key);  // duplicate insert
      i = next(i);
    }
    table_[i] = Entry{key, slot};
    ++size_;
  }

  /// Overwrite the slot of an existing key (the swap-remove "moved tail"
  /// update). Traps when the key is absent.
  void set(NodeHandle key, std::size_t slot) {
    CYCLOID_EXPECTS(size_ > 0);
    std::size_t i = bucket_of(key);
    while (table_[i].key != key) {
      CYCLOID_EXPECTS(table_[i].key != kNoNode);  // absent key
      i = next(i);
    }
    table_[i].slot = slot;
  }

  /// Remove a key (backward-shift deletion; no tombstones). Traps when the
  /// key is absent.
  void erase(NodeHandle key) {
    CYCLOID_EXPECTS(size_ > 0);
    std::size_t i = bucket_of(key);
    while (table_[i].key != key) {
      CYCLOID_EXPECTS(table_[i].key != kNoNode);  // absent key
      i = next(i);
    }
    // Shift the tail of the probe cluster back over the hole so every
    // remaining entry stays reachable from its home bucket.
    std::size_t hole = i;
    std::size_t j = next(i);
    while (table_[j].key != kNoNode) {
      const std::size_t home = bucket_of(table_[j].key);
      // Move j into the hole unless j still lies on the (circular) probe
      // path from its home bucket to the hole.
      const bool reachable = hole <= j ? (home > hole && home <= j)
                                       : (home > hole || home <= j);
      if (!reachable) {
        table_[hole] = table_[j];
        hole = j;
      }
      j = next(j);
    }
    table_[hole] = Entry{};
    --size_;
  }

  void clear() noexcept {
    table_.clear();
    size_ = 0;
  }

 private:
  struct Entry {
    NodeHandle key = kNoNode;
    std::size_t slot = kNoSlot;
  };

  std::size_t bucket_of(NodeHandle key) const noexcept {
    // Fibonacci hash: multiply by 2^64 / phi and keep the top bits.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::size_t next(std::size_t i) const noexcept {
    return (i + 1) & (table_.size() - 1);
  }

  void grow() {
    const std::size_t capacity = table_.empty() ? 16 : table_.size() * 2;
    std::vector<Entry> old = std::move(table_);
    table_.assign(capacity, Entry{});
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (const Entry& e : old) {
      if (e.key == kNoNode) continue;
      std::size_t i = bucket_of(e.key);
      while (table_[i].key != kNoNode) i = next(i);
      table_[i] = e;
    }
  }

  /// Power-of-two bucket array; empty buckets hold kNoNode.
  std::vector<Entry> table_;
  std::size_t size_ = 0;
  /// 64 - log2(table_.size()): the Fibonacci-hash downshift.
  int shift_ = 64;
};

}  // namespace cycloid::dht
