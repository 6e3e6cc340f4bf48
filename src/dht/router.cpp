#include "dht/router.hpp"

#include <algorithm>

namespace cycloid::dht {

bool RouteState::attempt(NodeHandle node) const {
  if (node == kNoNode) return false;
  if (policy_->alive(node)) return true;
  if (std::find(scratch_->dead_seen.begin(), scratch_->dead_seen.end(),
                node) == scratch_->dead_seen.end()) {
    scratch_->dead_seen.push_back(node);
    ++result_->timeouts;
  }
  return false;
}

bool RouteState::was_visited(NodeHandle node) const {
  return std::find(scratch_->visited.begin(), scratch_->visited.end(), node) !=
         scratch_->visited.end();
}

NodeHandle RouteState::resolve_chain(NodeHandle owner, NodeHandle primary,
                                     const std::vector<NodeHandle>& backups,
                                     bool locally_broken) const {
  if (locally_broken || sink_->is_broken(owner)) return kNoNode;
  std::size_t start = 0;
  if (const auto learned = sink_->learned_link(owner)) {
    const auto it = std::find(backups.begin(), backups.end(), *learned);
    if (it != backups.end()) {
      start = static_cast<std::size_t>(it - backups.begin()) + 1;
    }
  }
  const auto entry = [&](std::size_t i) {
    return i == 0 ? primary : backups[i - 1];
  };
  for (std::size_t i = start; i <= backups.size(); ++i) {
    if (!attempt(entry(i))) continue;
    if (i > 0) sink_->learn_link(owner, entry(i));  // repair-on-timeout
    return entry(i);
  }
  sink_->mark_broken(owner);
  return kNoNode;
}

}  // namespace cycloid::dht
