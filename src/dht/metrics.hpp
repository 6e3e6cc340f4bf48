// Caller-owned accounting for the read-only lookup core.
//
// Routing is split from mutation: `DhtNetwork::route_batch` (and `route`,
// its one-lookup case) is const and records everything a lookup observes —
// per-phase hops, timeouts, guard fallbacks, per-node query load, and any
// repair-on-timeout promotions it *learned* — into a caller-owned
// LookupMetrics. The sink is the only place these live: the network keeps
// no lookup counters of its own. Per-thread sinks merge deterministically
// (merge order fixed by the caller), which is what makes lookup-level
// parallelism bit-reproducible at any thread count.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dht/slot_index.hpp"
#include "dht/types.hpp"

namespace cycloid::dht {

class DhtNetwork;

class LookupMetrics {
 public:
  // Aggregate counters ---------------------------------------------------
  std::uint64_t lookups = 0;
  std::uint64_t hops = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t failures = 0;
  /// Times a routing safety net engaged (Cycloid's pure leaf-set descent).
  std::uint64_t guard_fallbacks = 0;
  /// Hops attributed to each routing phase (slot meanings per overlay).
  std::array<std::uint64_t, kMaxPhases> phase_hops{};
  /// Sum of LookupResult::route_latency over the noted lookups. Non-zero
  /// only when the lookups were priced (RouterOptions::trace/price_links).
  double route_latency = 0.0;

  /// Record the outcome of one finished lookup. The routing core calls this
  /// exactly once per lookup, immediately before returning.
  void note(const LookupResult& result);

  double mean_path() const {
    return lookups == 0 ? 0.0 : static_cast<double>(hops) /
                                    static_cast<double>(lookups);
  }

  // Per-node query load (paper Fig. 10) ----------------------------------
  //
  // Two representations, one logical plane. A sink *bound* to a network
  // (DhtNetwork::route_batch binds automatically) charges a dense
  // vector indexed by the network's stable node slot — no hashing and no
  // allocation on the hot path. Unbound sinks (engine unit tests driving
  // dht::Router directly) and handles the bound network does not know fall
  // back to a handle-keyed overflow map. Every accessor sums both, so the
  // observable values are identical to the pre-dense representation.
  //
  // Contract: a sink binds to one network for its lifetime, and a bound
  // sink must not span membership changes — swap-remove reuses slots, so a
  // leave+join between counts would misattribute load. Every driver in
  // this repo already obeys this (batch sinks live inside one frozen-
  // membership batch; the churn driver uses a fresh sink per lookup).

  /// Bind the query-load plane to `net`'s dense slot index. Idempotent for
  /// the same network; binding to a second network is a contract violation.
  void bind(const DhtNetwork& net);
  bool bound() const noexcept { return slots_ != nullptr; }

  /// Count one lookup message received by `node` (intermediate or final).
  void count_query(NodeHandle node) {
    if (slots_ != nullptr) {
      const std::size_t slot = slots_->lookup(node);
      if (slot != kNoSlot) {
        charge_slot(slot);
        return;
      }
    }
    ++query_load_overflow_[node];
  }

  /// count_query when the caller already resolved `node`'s slot (the
  /// router carries the current slot through the hop loop, so the charge
  /// is a bare array increment — no hash probe). `slot` must be `node`'s
  /// slot in the bound network, or kNoSlot when unknown.
  void count_query_at(std::size_t slot, NodeHandle node) {
    if (slots_ != nullptr && slot != kNoSlot) {
      charge_slot(slot);
      return;
    }
    count_query(node);
  }
  std::uint64_t query_load_of(NodeHandle node) const;
  /// Per-node loads in the network's canonical node order — one entry per
  /// live node, zeros included.
  std::vector<std::uint64_t> query_load_vector(const DhtNetwork& net) const;

  // Repair-on-timeout plane ----------------------------------------------
  // A const lookup cannot rewrite a node's stale link, but it can record
  // what it learned: "node X's primary pointer is dead, the first live
  // backup is Y" (learn_link) or "X's whole pointer set is dead"
  // (mark_broken). Later lookups through the same sink consult these
  // before the node's stored state — so within one batch the repair
  // semantics match the old mutating implementation — and
  // DhtNetwork::absorb() hands them to the overlay to apply for real.
  std::optional<NodeHandle> learned_link(NodeHandle node) const;
  void learn_link(NodeHandle node, NodeHandle target) {
    learned_links_[node] = target;
  }
  bool is_broken(NodeHandle node) const {
    return broken_links_.contains(node);
  }
  void mark_broken(NodeHandle node) { broken_links_.insert(node); }
  const std::unordered_map<NodeHandle, NodeHandle>& learned_links() const {
    return learned_links_;
  }
  const std::unordered_set<NodeHandle>& broken_links() const {
    return broken_links_;
  }

  /// Fold `other` into this sink. Counter sums are order-independent;
  /// learned links keep the first-merged value (all shards learn the same
  /// promotion for a given node, since it is a function of network state).
  /// An unbound sink merging a bound one binds to its network.
  void merge(const LookupMetrics& other);

 private:
  void charge_slot(std::size_t slot) {
    if (slot >= query_load_dense_.size()) {
      query_load_dense_.resize(slot + 1, 0);  // post-bind joins
    }
    ++query_load_dense_[slot];
  }

  void merge_query_load(const LookupMetrics& other);

  /// Bound network (cold path: binding an unbound sink on merge).
  const DhtNetwork* net_ = nullptr;
  /// The bound network's handle -> slot index (hot path; pointer to the
  /// index object itself, which outlives any rehash).
  const SlotIndex* slots_ = nullptr;
  /// Query load by node slot (bound sinks).
  std::vector<std::uint64_t> query_load_dense_;
  /// Query load by handle (unbound sinks; handles unknown to the network).
  std::unordered_map<NodeHandle, std::uint64_t> query_load_overflow_;
  std::unordered_map<NodeHandle, NodeHandle> learned_links_;
  std::unordered_set<NodeHandle> broken_links_;
};

}  // namespace cycloid::dht
