#include "chord/chord.hpp"

#include "util/bits.hpp"
#include "util/prefetch.hpp"

namespace cycloid::chord {

namespace {
using dht::kNoNode;
using dht::LookupResult;
using dht::NodeHandle;
using util::clockwise_distance;
using util::in_half_open_cw;
}  // namespace

// Chord's maintenance hooks: graceful leaves repair the successor structure
// immediately; fingers go stale until the stabilization refresh; a mass
// graceful departure makes every survivor re-check its ring pointers once.

void ChordNetwork::on_join(NodeHandle node) {
  ChordNode* state = node_of(node);
  CYCLOID_ASSERT(state != nullptr);
  compute_state(*state);
  refresh_ring_around(state->id);
}

void ChordNetwork::on_graceful_leave(NodeHandle node) {
  CYCLOID_EXPECTS(contains(node));
  const std::uint64_t id = node_of(node)->id;
  unlink(node);
  if (!ring_.empty()) refresh_ring_around(id);
}

void ChordNetwork::on_vanish(NodeHandle node) {
  // Nodes vanish without notifying anyone: successor lists and
  // predecessor pointers stay stale alongside the fingers.
  unlink(node);
}

void ChordNetwork::repair_after_mass_leave() {
  // Graceful departures repair the ring; fingers stay frozen.
  for (std::size_t slot = 0; slot < node_count(); ++slot) {
    ChordNode& node = node_at(slot);
    note_maintenance();  // everyone re-checks
    link_ring(node);
  }
}

void ChordNetwork::refresh(NodeHandle node) {
  ChordNode* state = node_of(node);
  if (state == nullptr) return;
  compute_state(*state);
}

void ChordNetwork::before_pass() { ring_.settle(); }

void ChordNetwork::dirty(dht::MembershipEvent event, NodeHandle node) {
  const ChordNode* state = node_of(node);
  CYCLOID_ASSERT(state != nullptr);  // pre-unlink / post-join contract
  const std::uint64_t id = state->id;
  if (ring_.size() <= 1) return;  // nobody else references this node

  // Ring structure (predecessor + successor lists): joins and graceful
  // single leaves repair it eagerly via refresh_ring_around, and a mass
  // graceful departure rebuilds it for every survivor — only a silent
  // vanish leaves it stale. Mark the same neighbourhood the graceful
  // repair walks: successor_list_length + 1 predecessors plus the strict
  // successor.
  if (event == dht::MembershipEvent::kVanish) {
    std::uint64_t cursor = id;
    for (int i = 0; i <= successor_list_length_; ++i) {
      const NodeHandle h = ring_.predecessor(cursor);
      mark_dirty(h);
      cursor = h;  // Chord handles are ids
    }
    mark_dirty(ring_.successor((id + 1) % space_size_));
  }

  // Fingers are never eagerly repaired, for any event. X.finger[i] =
  // successor(X.id + 2^i) changes exactly when X.id + 2^i lies in
  // (pred(J), J] — the key slice this event moves between J and its
  // successor — so mark the ring members in (pred(J) - 2^i, J - 2^i].
  const std::uint64_t pred = ring_.predecessor(id);
  const std::uint64_t space = space_size_;
  for (int i = 0; i < bits_; ++i) {
    const std::uint64_t step = 1ULL << i;
    mark_members((pred + space - step) % space,
                 (id + space - step) % space);
  }
}

void ChordNetwork::mark_members(std::uint64_t lo, std::uint64_t hi) {
  const auto& ring = ring_;
  std::size_t i = ring.upper_bound(lo);
  if (lo >= hi) {  // wrapping interval: (lo, top] then [0, hi]
    for (; i < ring.size(); ++i) mark_dirty(ring.handle(i));
    i = 0;
  }
  for (; i < ring.size() && ring.key(i) <= hi; ++i) {
    mark_dirty(ring.handle(i));
  }
}

ChordNetwork::ChordNetwork(int bits, int successor_list_length)
    : bits_(bits),
      space_size_(1ULL << bits),
      successor_list_length_(successor_list_length) {
  CYCLOID_EXPECTS(bits >= 1 && bits <= 32);
  CYCLOID_EXPECTS(successor_list_length >= 1);
}

std::unique_ptr<ChordNetwork> ChordNetwork::build_random(
    int bits, std::size_t count, util::Rng& rng, int successor_list_length,
    int threads) {
  auto net = std::make_unique<ChordNetwork>(bits, successor_list_length);
  CYCLOID_EXPECTS(count >= 1 && count <= net->space_size_);
  net->begin_bulk();
  while (net->node_count() < count) net->insert(rng.below(net->space_size_));
  net->finish_bulk(threads);
  return net;
}

std::unique_ptr<ChordNetwork> ChordNetwork::build_complete(int bits,
                                                           int threads) {
  auto net = std::make_unique<ChordNetwork>(bits);
  net->begin_bulk();
  for (std::uint64_t id = 0; id < net->space_size_; ++id) net->insert(id);
  net->finish_bulk(threads);
  return net;
}

bool ChordNetwork::insert(std::uint64_t id) {
  CYCLOID_EXPECTS(id < space_size_);
  if (contains(id)) return false;

  create_node(id).id = id;
  ring_.insert(id, id, bulk_building());

  // notify_joined runs on_join (compute_state + ring-neighbourhood
  // refresh) under the join-repair cause scope; bulk construction defers
  // derived state to finish_bulk's stabilize pass.
  notify_joined(id);
  return true;
}

void ChordNetwork::unlink(NodeHandle handle) {
  CYCLOID_EXPECTS(contains(handle));
  ring_.erase(handle);
  destroy_node(handle);
}

std::vector<std::string> ChordNetwork::phase_names() const {
  return {"finger", "successor"};
}

void ChordNetwork::link_ring(ChordNode& node) const {
  node.predecessor = ring_.predecessor(node.id);
  node.successors.clear();
  std::size_t at = ring_.index_of(node.id);
  for (int i = 0; i < successor_list_length_; ++i) {
    at = ring_.next(at);
    node.successors.push_back(ring_.handle(at));
  }
}

void ChordNetwork::compute_state(ChordNode& node) {
  const ChordNode before = node;
  link_ring(node);
  node.fingers.assign(static_cast<std::size_t>(bits_), kNoNode);
  for (int i = 0; i < bits_; ++i) {
    node.fingers[static_cast<std::size_t>(i)] =
        ring_.successor((node.id + (1ULL << i)) % space_size_);
  }

  if (node.predecessor != before.predecessor ||
      node.successors != before.successors ||
      node.fingers != before.fingers) {
    note_maintenance();
  }
}

void ChordNetwork::refresh_ring_around(std::uint64_t id) {
  // A membership change at `id` affects the successor lists of up to
  // successor_list_length_ preceding nodes, the predecessor pointer of the
  // succeeding node, and the changed node itself.
  std::uint64_t cursor = id;
  for (int i = 0; i <= successor_list_length_; ++i) {
    if (ring_.empty()) return;
    const NodeHandle handle = ring_.predecessor(cursor);
    ChordNode* node = node_of(handle);
    CYCLOID_ASSERT(node != nullptr);
    // Repair the successor structure only; fingers remain as they were.
    const NodeHandle old_pred = node->predecessor;
    const auto old_successors = node->successors;
    link_ring(*node);
    if (node->predecessor != old_pred || node->successors != old_successors) {
      note_maintenance();
    }
    cursor = node->id;
  }
  if (!ring_.empty()) {
    // The node following `id` (strictly — after a join, `id` itself is
    // present and must not shadow its successor) gets a fresh predecessor.
    const NodeHandle next = ring_.successor((id + 1) % space_size_);
    ChordNode* node = node_of(next);
    CYCLOID_ASSERT(node != nullptr);
    const NodeHandle old_pred = node->predecessor;
    node->predecessor = ring_.predecessor(node->id);
    if (node->predecessor != old_pred) note_maintenance();
  }
}

NodeHandle ChordNetwork::owner_of(dht::KeyHash key) const {
  return ring_.successor(key % space_size_);
}

namespace {

/// Chord's step policy: greedy closest-preceding-finger routing with the
/// successor list as the robustness fallback.
class ChordStepPolicy {
 public:
  ChordStepPolicy(const ChordNetwork& net, std::uint64_t target)
      : net_(net), target_(target) {}

  bool alive(NodeHandle node) const { return net_.contains(node); }
  std::size_t slot_of(NodeHandle node) const { return net_.slot_of(node); }
  int default_max_hops() const { return 8 * net_.bits(); }

  void prefetch(std::size_t slot) const { net_.prefetch_node(slot); }
  void prefetch_tables(std::size_t slot) const {
    // Stage 2 (record line presumed warm from stage 1): pull in the
    // out-of-line successor list and finger table next_hop will scan.
    const ChordNode& cur = net_.node_at(slot);
    util::prefetch_lines(cur.successors.data(),
                         cur.successors.size() * sizeof(NodeHandle));
    util::prefetch_lines(cur.fingers.data(),
                         cur.fingers.size() * sizeof(NodeHandle));
  }

  dht::HopDecision next_hop(const dht::RouteState& state) {
    const std::uint64_t space = net_.space_size();
    const ChordNode& cur = net_.node_at(state.current_slot());

    // Owner check: key in (predecessor, cur].
    if (cur.predecessor == cur.id ||  // singleton ring
        in_half_open_cw(target_, cur.predecessor, cur.id, space)) {
      return dht::HopDecision::deliver();
    }

    // First live entry of the successor list (always the first entry after
    // graceful departures; later ones only after ungraceful ones).
    NodeHandle succ = kNoNode;
    for (const NodeHandle sh : cur.successors) {
      if (state.attempt(*this, sh)) {
        succ = sh;
        break;
      }
    }
    if (succ == kNoNode) {
      // Whole successor list dead (ungraceful mass departure): stuck.
      return dht::HopDecision::fail();
    }

    // Final step: key in (cur, successor] -> the successor stores it. The
    // sender's view decides (forward_deliver): the successor's own
    // predecessor pointer may be stale after ungraceful departures and
    // must not bounce the key back into routing.
    if (in_half_open_cw(target_, cur.id, succ, space)) {
      return dht::HopDecision::forward_deliver(succ, ChordNetwork::kSuccessor,
                                               "successor");
    }

    // Greedy: highest finger in (cur, target); stale (departed) fingers
    // cost a timeout and are skipped.
    for (int i = net_.bits() - 1; i >= 0; --i) {
      const NodeHandle fh = cur.fingers[static_cast<std::size_t>(i)];
      if (fh == kNoNode || fh == cur.id) continue;
      if (!in_half_open_cw(fh, cur.id, (target_ + space - 1) % space, space)) {
        continue;  // finger not in (cur, target)
      }
      if (!state.attempt(*this, fh)) continue;
      return dht::HopDecision::forward(fh, ChordNetwork::kFinger, "finger");
    }

    // All useful fingers dead or void: advance along the successor list.
    NodeHandle best = kNoNode;
    for (const NodeHandle sh : cur.successors) {
      if (!state.attempt(*this, sh) || sh == cur.id) continue;
      if (!in_half_open_cw(sh, cur.id, (target_ + space - 1) % space, space)) {
        continue;
      }
      best = sh;  // successors are ordered; keep the farthest valid one
    }
    if (best == kNoNode) best = succ;
    return dht::HopDecision::forward(best, ChordNetwork::kSuccessor,
                                     "successor-list");
  }

 private:
  const ChordNetwork& net_;
  const std::uint64_t target_;
};
static_assert(dht::StepPolicy<ChordStepPolicy>);

}  // namespace

void ChordNetwork::route_batch(const NodeHandle* froms,
                               const dht::KeyHash* keys,
                               std::size_t count, int width,
                               dht::LookupMetrics& sink,
                               LookupResult* results,
                               dht::BatchScratch& lanes,
                               const dht::RouterOptions& options) const {
  dht::Router::route_batch(froms, keys, count, width, sink, results, lanes,
                           options, [this](NodeHandle from, dht::KeyHash key) {
                             CYCLOID_EXPECTS(contains(from));
                             return ChordStepPolicy(*this, key % space_size_);
                           });
}

NodeHandle ChordNetwork::join(std::uint64_t seed) {
  const std::uint64_t id = util::mix64(seed) % space_size_;
  if (!insert(id)) return kNoNode;
  return id;
}

}  // namespace cycloid::chord
