// Caller-owned accounting for the read-only lookup core.
//
// Routing is split from mutation: `DhtNetwork::route_batch` (and `route`,
// its one-lookup case) is const and records everything a lookup observes —
// per-phase hops, timeouts, guard fallbacks, and any repair-on-timeout
// promotions it *learned* — into a caller-owned LookupMetrics. The sink is
// the only place these live: the network keeps no lookup counters of its
// own. A sink holds no per-node state: creating one and routing one lookup
// through it costs O(hops), and one sink may span membership changes.
// Per-node query load (paper Fig. 10) is tallied from route traces by the
// experiment layer (exp::query_loads). Per-thread sinks merge
// deterministically (merge order fixed by the caller), which is what makes
// lookup-level parallelism bit-reproducible at any thread count.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "dht/types.hpp"

namespace cycloid::dht {

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
  /// only when the lookups were traced (RouterOptions::trace).
  double route_latency = 0.0;

  /// Record the outcome of one finished lookup. The routing core calls this
  /// exactly once per lookup, immediately before returning.
  void note(const LookupResult& result);

  double mean_path() const {
    return lookups == 0 ? 0.0 : static_cast<double>(hops) /
                                    static_cast<double>(lookups);
  }

  // Repair-on-timeout plane ----------------------------------------------
  // A const lookup cannot rewrite a node's stale link, but it can record
  // what it learned: "node X's primary pointer is dead, the first live
  // backup is Y" (learn_link) or "X's whole pointer set is dead"
  // (mark_broken). Later lookups through the same sink consult these
  // before the node's stored state — so within one batch a lookup sees
  // every repair an earlier one learned, as if it had been applied — and
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
  void merge(const LookupMetrics& other);

 private:
  std::unordered_map<NodeHandle, NodeHandle> learned_links_;
  std::unordered_set<NodeHandle> broken_links_;
};

}  // namespace cycloid::dht
