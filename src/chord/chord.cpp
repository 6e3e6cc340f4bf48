#include "chord/chord.hpp"

#include "util/bits.hpp"
#include "util/prefetch.hpp"

namespace cycloid::chord {

namespace {
using dht::kNoNode;
using dht::LookupResult;
using dht::NodeHandle;
using util::in_half_open_cw;
}  // namespace

// Chord's maintenance hooks: graceful leaves repair the successor structure
// immediately; fingers go stale until the stabilization refresh; a mass
// graceful departure makes every survivor re-check its ring pointers once.

void ChordNetwork::on_join(NodeHandle node) {
  ChordNode* state = node_of(node);
  CYCLOID_ASSERT(state != nullptr);
  compute_state(*state);
  refresh_ring_around(node);  // handles are ids
}

void ChordNetwork::on_graceful_leave(NodeHandle node) {
  unlink(node);
  refresh_ring_around(node);
}

void ChordNetwork::repair_after_mass_leave() {
  // Graceful departures repair the ring; fingers stay frozen. Every
  // survivor is charged, changed or not (CHANGES.md FOUND: charging only
  // the changed ones would move the maintenance goldens).
  note_maintenance(node_count());
  relink_all();
}

void ChordNetwork::refresh(NodeHandle node) {
  ChordNode* state = node_of(node);
  if (state == nullptr) return;
  compute_state(*state);
}

void ChordNetwork::dirty(dht::MembershipEvent event, NodeHandle node) {
  CYCLOID_ASSERT(contains(node));  // pre-unlink / post-join contract
  if (ring().size() <= 1) return;  // nobody else references this node
  mark_ring(event, node);

  // Fingers are never eagerly repaired, for any event. X.finger[i] =
  // successor(X.id + 2^i) changes exactly when X.id + 2^i lies in
  // (pred(J), J] — the key slice this event moves between J and its
  // successor — so mark the ring members in (pred(J) - 2^i, J - 2^i].
  const std::uint64_t id = node;
  const std::uint64_t pred = ring().predecessor(id);
  const std::uint64_t space = space_size();
  for (int i = 0; i < bits(); ++i) {
    const std::uint64_t step = 1ULL << i;
    mark_members((pred + space - step) % space,
                 (id + space - step) % space);
  }
}

void ChordNetwork::mark_members(std::uint64_t lo, std::uint64_t hi) {
  const auto& ring = this->ring();
  std::size_t i = ring.upper_bound(lo);
  if (lo >= hi) {  // wrapping interval: (lo, top] then [0, hi]
    for (; i < ring.size(); ++i) mark_dirty(ring.handle(i));
    i = 0;
  }
  for (; i < ring.size() && ring.key(i) <= hi; ++i) {
    mark_dirty(ring.handle(i));
  }
}

ChordNetwork::ChordNetwork(int bits) : SuccessorRing(bits) {}

std::unique_ptr<ChordNetwork> ChordNetwork::build_random(int bits,
                                                         std::size_t count,
                                                         util::Rng& rng,
                                                         int threads) {
  auto net = std::make_unique<ChordNetwork>(bits);
  net->populate_random(count, rng, threads);
  return net;
}

std::unique_ptr<ChordNetwork> ChordNetwork::build_complete(int bits,
                                                           int threads) {
  auto net = std::make_unique<ChordNetwork>(bits);
  net->populate_complete(threads);
  return net;
}

std::vector<std::string> ChordNetwork::phase_names() const {
  return {"finger", "successor"};
}

void ChordNetwork::compute_state(ChordNode& node) {
  const auto fingers = static_cast<std::size_t>(bits());
  bool changed = relink(node) || node.fingers.size() != fingers;
  node.fingers.resize(fingers);
  for (std::size_t i = 0; i < fingers; ++i) {
    const NodeHandle finger =
        ring().successor((node.id + (1ULL << i)) % space_size());
    changed = changed || node.fingers[i] != finger;
    node.fingers[i] = finger;
  }
  // One update when the ring links or any finger changed.
  if (changed) note_maintenance();
}

void ChordNetwork::refresh_ring_around(std::uint64_t id) {
  // Every walked member whose links changed is charged, the member after
  // `id` (whose predecessor alone is rewritten) included.
  const dht::RingRepair repair = relink_around(id);
  note_maintenance(repair.before + (repair.after ? 1 : 0));
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
    // Stage 2 (record line presumed warm from stage 1, the successor list
    // with it): pull in the finger table next_hop will scan.
    const ChordNode& cur = net_.node_at(slot);
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
                             return ChordStepPolicy(*this, key % space_size());
                           });
}

}  // namespace cycloid::chord
