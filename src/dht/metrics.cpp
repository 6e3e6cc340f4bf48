#include "dht/metrics.hpp"

#include "dht/network.hpp"
#include "util/contracts.hpp"

namespace cycloid::dht {

void LookupMetrics::note(const LookupResult& result) {
  ++lookups;
  hops += static_cast<std::uint64_t>(result.hops);
  timeouts += static_cast<std::uint64_t>(result.timeouts);
  if (!result.success) ++failures;
  for (std::size_t p = 0; p < kMaxPhases; ++p) {
    phase_hops[p] += static_cast<std::uint64_t>(result.phase_hops[p]);
  }
  route_latency += result.route_latency;
}

void LookupMetrics::bind(const DhtNetwork& net) {
  if (net_ == &net) return;
  CYCLOID_EXPECTS(net_ == nullptr);  // one network per sink lifetime
  net_ = &net;
  slots_ = &net.slot_index();
  query_load_dense_.assign(net.node_count(), 0);
}

std::uint64_t LookupMetrics::query_load_of(NodeHandle node) const {
  std::uint64_t load = 0;
  if (slots_ != nullptr) {
    const std::size_t slot = slots_->lookup(node);
    if (slot != kNoSlot && slot < query_load_dense_.size()) {
      load = query_load_dense_[slot];
    }
  }
  const auto it = query_load_overflow_.find(node);
  if (it != query_load_overflow_.end()) load += it->second;
  return load;
}

std::vector<std::uint64_t> LookupMetrics::query_load_vector(
    const DhtNetwork& net) const {
  std::vector<std::uint64_t> loads;
  loads.reserve(net.node_count());
  for (const NodeHandle handle : net.node_handles()) {
    loads.push_back(query_load_of(handle));
  }
  return loads;
}

std::optional<NodeHandle> LookupMetrics::learned_link(NodeHandle node) const {
  const auto it = learned_links_.find(node);
  if (it == learned_links_.end()) return std::nullopt;
  return it->second;
}

void LookupMetrics::merge(const LookupMetrics& other) {
  lookups += other.lookups;
  hops += other.hops;
  timeouts += other.timeouts;
  failures += other.failures;
  guard_fallbacks += other.guard_fallbacks;
  for (std::size_t p = 0; p < kMaxPhases; ++p) {
    phase_hops[p] += other.phase_hops[p];
  }
  route_latency += other.route_latency;
  merge_query_load(other);
  for (const auto& [node, target] : other.learned_links_) {
    learned_links_.emplace(node, target);
  }
  broken_links_.insert(other.broken_links_.begin(),
                       other.broken_links_.end());
}

void LookupMetrics::merge_query_load(const LookupMetrics& other) {
  if (other.net_ != nullptr) {
    // Shards of one batch are bound to the same network (bind traps any
    // other), so the dense planes add element-wise.
    bind(*other.net_);
    if (query_load_dense_.size() < other.query_load_dense_.size()) {
      query_load_dense_.resize(other.query_load_dense_.size(), 0);
    }
    for (std::size_t slot = 0; slot < other.query_load_dense_.size();
         ++slot) {
      query_load_dense_[slot] += other.query_load_dense_[slot];
    }
  }
  for (const auto& [node, load] : other.query_load_overflow_) {
    query_load_overflow_[node] += load;
  }
}

}  // namespace cycloid::dht
