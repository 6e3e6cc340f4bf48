// The reference for Pastry's dirty hook: the scans the hook used to run,
// visiting every node and reading public state only. A departure's or a
// join's marks are the leaf-set neighbours a silent vanish leaves stale,
// every node whose stored routing entry the event can change, and every
// node whose stored neighbourhood set it can change, each by the same
// per-node test as the hook. The hook itself reads only a few ring ranges
// and a grid disc (DESIGN.md §20), so comparing the two sets catches both
// a missed node and an extra one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "dht/maintenance.hpp"
#include "pastry/pastry.hpp"

namespace cycloid::pastry {

/// The nodes the dirty hook must mark for `event` at `node`, by a scan of
/// every node. Call it where the hook runs: after a join, before a
/// departure.
inline std::set<dht::NodeHandle> reference_dirty_marks(
    const PastryNetwork& net, dht::MembershipEvent event,
    dht::NodeHandle node) {
  std::set<dht::NodeHandle> marks;
  const std::vector<dht::NodeHandle> ring = net.node_handles();  // ascending
  if (ring.size() <= 1) return marks;
  const PastryNode& state = net.node_state(node);
  const std::uint64_t id = state.id;

  // Leaf sets go stale only on a silent vanish: leaf_half + 1 ring
  // neighbours on each side of the victim, stopping at a wrap.
  if (event == dht::MembershipEvent::kVanish) {
    const int walk = net.leaf_set_size() / 2 + 1;
    const auto at = static_cast<std::size_t>(
        std::lower_bound(ring.begin(), ring.end(), id) - ring.begin());
    std::size_t down = at;
    std::size_t up = at;
    for (int i = 0; i < walk; ++i) {
      down = (down == 0 ? ring.size() : down) - 1;
      if (ring[down] == id) break;
      marks.insert(ring[down]);
    }
    for (int i = 0; i < walk; ++i) {
      up = up + 1 == ring.size() ? 0 : up + 1;
      if (ring[up] == id) break;
      marks.insert(ring[up]);
    }
  }

  // Routing referencers: every node of J's row-r prefix window outside J's
  // own sub-window, tested on its entry for J's sub-window.
  const bool join = event == dht::MembershipEvent::kJoin;
  const int bits = net.bits();
  const int b = net.bits_per_digit();
  const auto rows = static_cast<std::size_t>(net.digit_count());
  for (int row = 0; row < net.digit_count(); ++row) {
    const int col = net.digit(id, row);
    const int suffix_bits = bits - (row + 1) * b;
    const std::uint64_t span = 1ULL << (suffix_bits + b);
    const std::uint64_t start = (id / span) * span;
    for (const dht::NodeHandle x : ring) {
      if (x < start || x >= start + span) continue;
      if (net.digit(x, row) == col) continue;  // deeper row (and J itself)
      const auto& table = net.node_state(x).routing_table;
      if (table.size() != rows) {
        marks.insert(x);
        continue;
      }
      const dht::NodeHandle entry =
          table[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)];
      if (!join) {
        if (entry == node) marks.insert(x);
        continue;
      }
      if (entry == dht::kNoNode) {
        marks.insert(x);
        continue;
      }
      const std::uint64_t window = 1ULL << suffix_bits;
      const std::uint64_t preferred =
          ((x / span) * span) |
          (static_cast<std::uint64_t>(col) << suffix_bits) |
          (x & (window - 1));
      const auto gap = [preferred](std::uint64_t c) {
        return c >= preferred ? c - preferred : preferred - c;
      };
      if (gap(id) <= gap(entry)) marks.insert(x);
    }
  }

  // Neighbourhood holders: a departure stales every set holding the
  // victim; a join every set not yet full or whose farthest member the
  // newcomer ties or beats.
  const auto m = static_cast<std::size_t>(net.neighborhood_size());
  if (m == 0) return marks;
  for (const dht::NodeHandle x : ring) {
    if (x == node) continue;
    const PastryNode& other = net.node_state(x);
    if (!join) {
      if (std::find(other.neighborhood.begin(), other.neighborhood.end(),
                    node) != other.neighborhood.end()) {
        marks.insert(x);
      }
      continue;
    }
    if (other.neighborhood.size() < m) {
      marks.insert(x);
      continue;
    }
    const PastryNode* farthest = net.node_of(other.neighborhood.back());
    if (farthest == nullptr ||
        PastryNetwork::proximity(other.x, other.y, state.x, state.y) <=
            PastryNetwork::proximity(other.x, other.y, farthest->x,
                                     farthest->y)) {
      marks.insert(x);
    }
  }
  return marks;
}

}  // namespace cycloid::pastry
