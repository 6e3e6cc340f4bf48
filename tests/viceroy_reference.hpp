// The reference for Viceroy's stored links: a brute-force resolver that
// scans node_handles() and queries no ring, so the stored links are checked
// against their definition (paper Sec. 2.5), not against the code that
// maintains them.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "viceroy/viceroy.hpp"

namespace cycloid::viceroy {

/// The node passing `keep` that comes first clockwise from `key` — at or
/// after it when `inclusive`, else strictly after — wrapping past 1.0.
template <typename Keep>
ViceroyLink reference_first_after(const ViceroyNetwork& net, double key,
                                  bool inclusive, Keep keep) {
  ViceroyLink best;
  bool best_wraps = true;
  for (const dht::NodeHandle h : net.node_handles()) {
    const ViceroyNode& node = net.node_state(h);
    if (!keep(h, node)) continue;
    const bool wraps = inclusive ? node.id < key : node.id <= key;
    if (best.node == dht::kNoNode || (!wraps && best_wraps) ||
        (wraps == best_wraps && node.id < best.id)) {
      best = {h, node.id};
      best_wraps = wraps;
    }
  }
  return best;
}

/// The node passing `keep` that comes last strictly before `key`, wrapping
/// below 0.
template <typename Keep>
ViceroyLink reference_last_before(const ViceroyNetwork& net, double key,
                                  Keep keep) {
  ViceroyLink best;
  bool best_wraps = true;
  for (const dht::NodeHandle h : net.node_handles()) {
    const ViceroyNode& node = net.node_state(h);
    if (!keep(h, node)) continue;
    const bool wraps = node.id >= key;
    if (best.node == dht::kNoNode || (!wraps && best_wraps) ||
        (wraps == best_wraps && node.id > best.id)) {
      best = {h, node.id};
      best_wraps = wraps;
    }
  }
  return best;
}

/// The seven links of `handle`, from their definitions.
inline ViceroyLinks reference_links(const ViceroyNetwork& net,
                                    dht::NodeHandle handle) {
  const ViceroyNode& self = net.node_state(handle);
  const auto other = [&](dht::NodeHandle h, const ViceroyNode&) {
    return h != handle;
  };
  const auto peer = [&](dht::NodeHandle h, const ViceroyNode& node) {
    return h != handle && node.level == self.level;
  };
  const auto on_level = [](int level) {
    return [level](dht::NodeHandle, const ViceroyNode& node) {
      return node.level == level;
    };
  };
  ViceroyLinks links;
  links[kRingPred] = reference_last_before(net, self.id, other);
  links[kRingSucc] = reference_first_after(net, self.id, false, other);
  links[kLevelPrev] = reference_last_before(net, self.id, peer);
  links[kLevelNext] = reference_first_after(net, self.id, false, peer);
  links[kDownLeft] =
      reference_first_after(net, self.id, true, on_level(self.level + 1));
  // The anchor as the protocol defines it, rounding included.
  double anchor = self.id + std::ldexp(1.0, -self.level);
  if (anchor >= 1.0) anchor -= 1.0;
  links[kDownRight] =
      reference_first_after(net, anchor, true, on_level(self.level + 1));
  for (int level = self.level - 1; level >= 1; --level) {
    links[kUp] = reference_first_after(net, self.id, true, on_level(level));
    if (links[kUp].node != dht::kNoNode) break;
  }
  return links;
}

/// Expect every node's stored links, ids included, to equal the reference.
inline void expect_links_match_reference(const ViceroyNetwork& net,
                                         const std::string& where) {
  for (const dht::NodeHandle h : net.node_handles()) {
    const ViceroyLinks& stored = net.node_state(h).links;
    const ViceroyLinks expected = reference_links(net, h);
    for (std::size_t k = 0; k < kLinkCount; ++k) {
      ASSERT_EQ(stored[k].node, expected[k].node)
          << where << ": node " << h << " link " << k;
      ASSERT_EQ(stored[k].id, expected[k].id)
          << where << ": node " << h << " link " << k;
    }
  }
}

/// Other nodes whose reference links name `handle` — what a join or leave
/// of `handle` must repair (a join after it, a leave before it).
inline std::uint64_t reference_referencers(const ViceroyNetwork& net,
                                           dht::NodeHandle handle) {
  std::uint64_t count = 0;
  for (const dht::NodeHandle h : net.node_handles()) {
    if (h == handle) continue;
    for (const ViceroyLink& link : reference_links(net, h)) {
      if (link.node == handle) {
        ++count;
        break;
      }
    }
  }
  return count;
}

}  // namespace cycloid::viceroy
