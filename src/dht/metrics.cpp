#include "dht/metrics.hpp"

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
  for (const auto& [node, target] : other.learned_links_) {
    learned_links_.emplace(node, target);
  }
  broken_links_.insert(other.broken_links_.begin(),
                       other.broken_links_.end());
}

}  // namespace cycloid::dht
