#include "dht/store.hpp"

#include <algorithm>

#include "hash/keys.hpp"
#include "util/contracts.hpp"

namespace cycloid::dht {

DhtStore::DhtStore(DhtNetwork& net, int replicas)
    : net_(net), replicas_(replicas), rng_(0x5709eULL) {
  CYCLOID_EXPECTS(replicas >= 1);
}

std::vector<NodeHandle> DhtStore::replica_set(const std::string& key) const {
  const KeyHash h = hash::hash_name(key);
  const NodeHandle owner = net_.owner_of(h);
  std::vector<NodeHandle> holders = {owner};
  if (replicas_ > 1) {
    // Followers alternate on both sides of the owner in identifier order —
    // the Pastry leaf-set replication style — so whichever neighbour
    // inherits the key range after a departure already holds a copy.
    const std::vector<NodeHandle> ring = net_.node_handles();
    const auto it = std::find(ring.begin(), ring.end(), owner);
    CYCLOID_ASSERT(it != ring.end());
    const std::size_t base = static_cast<std::size_t>(it - ring.begin());
    const std::size_t n = ring.size();
    std::size_t offset = 1;
    while (holders.size() <
           std::min<std::size_t>(static_cast<std::size_t>(replicas_), n)) {
      holders.push_back(ring[(base + offset) % n]);
      if (holders.size() <
          std::min<std::size_t>(static_cast<std::size_t>(replicas_), n)) {
        holders.push_back(ring[(base + n - offset) % n]);
      }
      ++offset;
    }
  }
  return holders;
}

LookupResult DhtStore::put(const std::string& key, std::string value,
                           NodeHandle source) {
  if (source == kNoNode) source = net_.random_node(rng_);
  // Fresh sink per lookup; absorb applies the repairs it learned (Koorde).
  LookupMetrics sink;
  const LookupResult result = net_.lookup(source, hash::hash_name(key), sink);
  net_.absorb(sink);
  directory_[key] = Entry{std::move(value), replica_set(key)};
  return result;
}

std::optional<std::string> DhtStore::get(const std::string& key,
                                         NodeHandle source,
                                         LookupResult* result) {
  if (source == kNoNode) source = net_.random_node(rng_);
  LookupMetrics sink;
  const LookupResult lookup = net_.lookup(source, hash::hash_name(key), sink);
  net_.absorb(sink);
  if (result != nullptr) *result = lookup;

  const auto it = directory_.find(key);
  if (it == directory_.end()) return std::nullopt;
  const Entry& entry = it->second;
  // The value is found when the lookup terminated at any live holder.
  if (!lookup.success) return std::nullopt;
  if (std::find(entry.holders.begin(), entry.holders.end(),
                lookup.destination) == entry.holders.end()) {
    return std::nullopt;
  }
  return entry.value;
}

bool DhtStore::erase(const std::string& key) {
  return directory_.erase(key) > 0;
}

std::size_t DhtStore::keys_on(NodeHandle node) const {
  std::size_t count = 0;
  for (const auto& [key, entry] : directory_) {
    count += static_cast<std::size_t>(
        std::count(entry.holders.begin(), entry.holders.end(), node));
  }
  return count;
}

std::vector<std::uint64_t> DhtStore::primary_load() const {
  std::unordered_map<NodeHandle, std::uint64_t> counts;
  for (const auto& [key, entry] : directory_) {
    ++counts[entry.holders.front()];
  }
  std::vector<std::uint64_t> loads;
  for (const NodeHandle h : net_.node_handles()) {
    const auto it = counts.find(h);
    loads.push_back(it == counts.end() ? 0 : it->second);
  }
  return loads;
}

std::size_t DhtStore::rebalance() {
  std::size_t moved = 0;
  for (auto& [key, entry] : directory_) {
    std::vector<NodeHandle> fresh = replica_set(key);
    if (fresh != entry.holders) {
      entry.holders = std::move(fresh);
      ++moved;
    }
  }
  return moved;
}

double DhtStore::placement_accuracy() const {
  if (directory_.empty()) return 1.0;
  std::size_t correct = 0;
  for (const auto& [key, entry] : directory_) {
    const NodeHandle owner = net_.owner_of(hash::hash_name(key));
    if (!entry.holders.empty() && entry.holders.front() == owner &&
        net_.contains(owner)) {
      ++correct;
    }
  }
  return static_cast<double>(correct) /
         static_cast<double>(directory_.size());
}

}  // namespace cycloid::dht
