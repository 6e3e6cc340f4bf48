#include "core/network.hpp"

#include <algorithm>
#include <array>

#include "util/bits.hpp"

namespace cycloid::ccc {

namespace {

using dht::kNoNode;
using dht::NodeHandle;

}  // namespace

// Cycloid's maintenance hooks (paper Sec. 3.3): joins and graceful leaves
// repair leaf sets eagerly; routing-table entries go stale until the
// stabilization refresh; mass graceful departures repair every leaf set
// once after all victims are unlinked.

void CycloidNetwork::on_join(NodeHandle node) {
  CycloidNode* state = node_of(node);
  CYCLOID_ASSERT(state != nullptr);
  compute_routing_table(*state);
  refresh_leafsets_around(state->id.cubical);
}

void CycloidNetwork::on_graceful_leave(NodeHandle node) {
  CYCLOID_EXPECTS(contains(node));
  const CccId id = CycloidNetwork::id_of(node);
  unlink(node);
  // The departing node notifies its inside leaf set (and, when primary,
  // its outside leaf set, which cascades through the neighboring
  // cycles); all leaf sets referencing it are repaired. Cubical/cyclic
  // entries elsewhere stay stale until stabilization.
  refresh_leafsets_around(id.cubical);
}

void CycloidNetwork::on_vanish(NodeHandle node) {
  // Nodes vanish without warning: nobody is notified, so leaf sets stay
  // stale alongside the routing tables (paper Sec. 5's open problem).
  // Lookups discover the damage through timeouts until stabilization.
  unlink(node);
}

void CycloidNetwork::repair_after_mass_leave() {
  // Graceful departures repair every leaf set; routing tables stay
  // frozen.
  for (std::size_t slot = 0; slot < node_count(); ++slot) {
    compute_leaf_sets(node_at(slot));
  }
}

void CycloidNetwork::refresh(NodeHandle node) {
  CycloidNode* state = node_of(node);
  if (state == nullptr) return;  // departed before its stabilization timer
  compute_routing_table(*state);
  compute_leaf_sets(*state);
}

void CycloidNetwork::before_pass() {
  ring_.settle();
  for (auto& level : by_level_) level.settle();
}

void CycloidNetwork::dirty(dht::MembershipEvent event, NodeHandle node) {
  const CycloidNode* state = node_of(node);
  CYCLOID_ASSERT(state != nullptr);  // pre-unlink / post-join contract
  const CccId id = state->id;

  // Leaf sets: on_join and on_graceful_leave run refresh_leafsets_around
  // (exact recompute of every affected cycle) and repair_after_mass_leave
  // recomputes all leaf sets, so only a silent vanish leaves leaf sets
  // stale — mark the cycles the post-unlink repair walk would touch.
  if (event == dht::MembershipEvent::kVanish) {
    for (const std::uint64_t c : affected_cycles(id.cubical)) {
      for (std::size_t i = cycle_begin(c), end = cycle_end(c);
           i < end; ++i) {
        mark_dirty(ring_.handle(i));
      }
    }
  }

  // Routing tables: a node at cyclic level m reads by_level_[m-1], so a
  // change at (cubical, cyclic k) perturbs only level k + 1 — for every
  // event, graceful or not (cubical/cyclic entries are never eagerly
  // repaired).
  mark_routing_referencers(id, event == dht::MembershipEvent::kJoin);
}

/// Mark the level-(k+1) nodes whose cubical or cyclic routing entries the
/// change at `id` = (cubical a, cyclic k) can perturb. Exact inversion of
/// compute_routing_table's candidate windows:
///  - cubical: X with cubical x scans [flip_bit(x,m) & ~(2^m-1), +2^m), so
///    the affected x lie in the mirror window around flip_bit(a,m); a
///    departure matters only to X whose stored entry is the victim, a join
///    only to X the newcomer ties-or-beats on suffix gap (proximity
///    selection marks the whole window — the latency argmin is not
///    predictable from stored state).
///  - cyclic: X takes the nearest level-k cubical at-or-after/at-or-before
///    its own, so only X strictly between a's level-k neighbors (clamped
///    to the range ends) can gain or lose the entry.
void CycloidNetwork::mark_routing_referencers(const CccId& id, bool join) {
  const std::size_t m = static_cast<std::size_t>(id.cyclic) + 1;
  if (m >= by_level_.size()) return;
  const auto& level = by_level_[m];  // potential referencers
  if (level.empty()) return;
  const auto& feeder = by_level_[id.cyclic];
  const NodeHandle changed = CycloidNetwork::handle_of(id);
  const bool proximity = selection_ == dht::NeighborSelection::kProximity;

  const std::uint64_t window = 1ULL << m;
  const std::uint64_t base =
      util::flip_bit(id.cubical, static_cast<int>(m)) & ~(window - 1);
  for (std::size_t i = level.lower_bound(base);
       i < level.size() && level.key(i) < base + window; ++i) {
    const NodeHandle referencer = level.handle(i);
    const CycloidNode* ref = node_of(referencer);
    CYCLOID_ASSERT(ref != nullptr);
    if (!join) {
      // Removing a non-selected candidate never changes the argmin.
      if (ref->cubical_neighbor == changed) mark_dirty(referencer);
      continue;
    }
    if (proximity || ref->cubical_neighbor == kNoNode) {
      mark_dirty(referencer);
      continue;
    }
    const std::uint64_t preferred =
        util::flip_bit(level.key(i), static_cast<int>(m));
    const auto gap = [preferred](std::uint64_t c) {
      return c >= preferred ? c - preferred : preferred - c;
    };
    const std::uint64_t stored =
        CycloidNetwork::id_of(ref->cubical_neighbor).cubical;
    if (gap(id.cubical) <= gap(stored)) mark_dirty(referencer);
  }

  // Cyclic neighbors. `feeder` still contains `a` itself (post-join /
  // pre-unlink); the strict bounds exclude it.
  const std::size_t at = feeder.lower_bound(id.cubical);
  const std::size_t past = feeder.upper_bound(id.cubical);
  std::size_t start = at > 0 ? level.upper_bound(feeder.key(at - 1)) : 0;
  const std::size_t stop = past < feeder.size()
                               ? level.lower_bound(feeder.key(past))
                               : level.size();
  for (; start < stop; ++start) mark_dirty(level.handle(start));
}

CycloidNetwork::CycloidNetwork(int dimension, int leaf_width,
                               dht::NeighborSelection selection)
    : space_(dimension), leaf_width_(leaf_width), selection_(selection) {
  CYCLOID_EXPECTS(dimension <= kMaxDimension);
  CYCLOID_EXPECTS(leaf_width >= 1 && leaf_width <= kMaxLeafWidth);
  by_level_.resize(static_cast<std::size_t>(dimension));
  slot_by_position_.assign(space_.size(), kNoPositionSlot);
}

std::unique_ptr<CycloidNetwork> CycloidNetwork::build_complete(
    int dimension, int leaf_width, dht::NeighborSelection selection,
    int threads) {
  auto net = std::make_unique<CycloidNetwork>(dimension, leaf_width, selection);
  const CccSpace& space = net->space_;
  net->reserve_nodes(space.size());
  net->begin_bulk();
  for (std::uint64_t pos = 0; pos < space.size(); ++pos) {
    const bool inserted = net->insert(space.from_ring_position(pos));
    CYCLOID_ASSERT(inserted);
  }
  net->finish_bulk(threads);
  return net;
}

std::unique_ptr<CycloidNetwork> CycloidNetwork::build_random(
    int dimension, std::size_t count, util::Rng& rng, int leaf_width,
    dht::NeighborSelection selection, int threads) {
  auto net = std::make_unique<CycloidNetwork>(dimension, leaf_width, selection);
  const CccSpace& space = net->space_;
  CYCLOID_EXPECTS(count >= 1 && count <= space.size());
  net->reserve_nodes(count);
  net->begin_bulk();
  while (net->node_count() < count) {
    // One RNG draw per iteration whether or not the position is taken —
    // the exact draw sequence of the incremental builder, so placements
    // stay byte-identical. Duplicates cost one membership probe.
    const std::uint64_t pos = rng.below(space.size());
    const CccId id = space.from_ring_position(pos);
    if (net->contains(handle_of(id))) continue;
    net->insert(id);
  }
  net->finish_bulk(threads);
  return net;
}

// --------------------------------------------------------------------------
// Membership indexes

bool CycloidNetwork::insert(const CccId& id) {
  CYCLOID_EXPECTS(space_.valid(id));
  const NodeHandle handle = handle_of(id);
  if (contains(handle)) return false;

  const std::uint64_t pos = space_.ring_position(id);
  create_node(handle).id = id;
  slot_by_position_[pos] = static_cast<std::uint32_t>(node_count() - 1);
  ring_.insert(pos, handle, bulk_building());
  by_level_[id.cyclic].insert(id.cubical, handle, bulk_building());

  // notify_joined runs the join repairs (on_join) under the join-repair
  // cause scope. Bulk construction defers all derived state to the single
  // stabilize pass in finish_bulk — the eager per-insert computation would
  // be recomputed from final membership there anyway — so notify_joined is
  // a no-op while bulk_building().
  notify_joined(handle);
  return true;
}

void CycloidNetwork::unlink(NodeHandle handle) {
  const CycloidNode* node = node_of(handle);
  CYCLOID_EXPECTS(node != nullptr);
  const CccId id = node->id;
  const std::uint64_t pos = space_.ring_position(id);

  ring_.erase(pos);
  by_level_[id.cyclic].erase(id.cubical);

  // The registry swap-removes: the tail node takes the departed node's
  // slot, so its position entry follows it there.
  const std::size_t slot = slot_of(handle);
  const NodeHandle tail = handle_at(node_count() - 1);
  destroy_node(handle);
  slot_by_position_[pos] = kNoPositionSlot;
  if (tail != handle) {
    slot_by_position_[space_.ring_position(id_of(tail))] =
        static_cast<std::uint32_t>(slot);
  }
}

bool CycloidNetwork::check_invariants() const {
  // 1. The registry and the arena agree, and the position table holds each
  //    live node's slot at its position. Counting the filled entries shows
  //    the table is empty everywhere else.
  const std::size_t n = node_count();
  const auto w = static_cast<std::size_t>(leaf_width_);
  for (std::size_t slot = 0; slot < n; ++slot) {
    const CycloidNode& node = node_at(slot);
    if (!space_.valid(node.id) || handle_at(slot) != handle_of(node.id)) {
      return false;
    }
    if (slot_by_position_[space_.ring_position(node.id)] != slot) return false;
    // 2. Each record fills exactly its first 4 * leaf_width leaf slots.
    for (std::size_t i = 0; i < node.leaves.size(); ++i) {
      if ((node.leaves[i] == kNoNode) != (i >= 4 * w)) return false;
    }
  }
  if (static_cast<std::size_t>(std::count_if(
          slot_by_position_.begin(), slot_by_position_.end(),
          [](std::uint32_t s) { return s != kNoPositionSlot; })) != n) {
    return false;
  }

  // 3. The global ring and the level rings list exactly the members, in
  //    ascending key order. Every ring handle is a member, and the sizes
  //    sum to n, so no member is missing.
  const auto ring_agrees = [&](const dht::SortedRing<std::uint64_t>& ring,
                               auto id_at) {
    return ring.all_ascending([&](std::uint64_t key, NodeHandle h) {
      return h == handle_of(id_at(key)) && contains(h);
    });
  };
  if (ring_.size() != n ||
      !ring_agrees(ring_, [&](std::uint64_t pos) {
        return space_.from_ring_position(pos);
      })) {
    return false;
  }
  std::size_t level_total = 0;
  for (std::uint32_t k = 0; k < by_level_.size(); ++k) {
    level_total += by_level_[k].size();
    if (!ring_agrees(by_level_[k], [k](std::uint64_t cubical) {
          return CccId{k, cubical};
        })) {
      return false;
    }
  }
  return level_total == n;
}

std::string CycloidNetwork::name() const {
  return "Cycloid-" + std::to_string(3 + 4 * leaf_width_);
}

std::vector<std::string> CycloidNetwork::phase_names() const {
  return {"ascend", "descend", "traverse"};
}

// --------------------------------------------------------------------------
// Cycle geometry

NodeHandle CycloidNetwork::primary_of_cycle(std::uint64_t cubical) const {
  const std::size_t end = cycle_end(cubical);
  CYCLOID_EXPECTS(end > 0 && cubical_at(end - 1) == cubical);
  return ring_.handle(end - 1);
}

std::uint64_t CycloidNetwork::preceding_cycle(std::uint64_t cubical) const {
  CYCLOID_EXPECTS(!ring_.empty());
  return cubical_at(ring_.prev(cycle_begin(cubical)));
}

std::uint64_t CycloidNetwork::succeeding_cycle(std::uint64_t cubical) const {
  CYCLOID_EXPECTS(!ring_.empty());
  const std::size_t end = cycle_end(cubical);
  return cubical_at(end == ring_.size() ? 0 : end);
}

std::vector<std::uint64_t> CycloidNetwork::affected_cycles(
    std::uint64_t cubical) const {
  std::vector<std::uint64_t> affected;
  if (ring_.empty()) return affected;
  if (cycle_begin(cubical) != cycle_end(cubical)) affected.push_back(cubical);
  std::uint64_t walk = cubical;
  for (int i = 0; i < leaf_width_; ++i) {
    walk = preceding_cycle(walk);
    affected.push_back(walk);
  }
  walk = cubical;
  for (int i = 0; i < leaf_width_; ++i) {
    walk = succeeding_cycle(walk);
    affected.push_back(walk);
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  return affected;
}

// --------------------------------------------------------------------------
// Routing table & leaf sets

void CycloidNetwork::compute_routing_table(CycloidNode& node) {
  const NodeHandle old_cubical = node.cubical_neighbor;
  const NodeHandle old_larger = node.cyclic_larger;
  const NodeHandle old_smaller = node.cyclic_smaller;
  node.cubical_neighbor = kNoNode;
  node.cyclic_larger = kNoNode;
  node.cyclic_smaller = kNoNode;

  const std::uint32_t k = node.id.cyclic;
  if (k == 0) return;  // paper: cyclic index 0 has no cubical/cyclic neighbors
  const auto& level = by_level_[k - 1];
  if (level.empty()) return;

  // Cubical neighbor: cyclic index k-1, cubical matching the node's bits
  // above position k with bit k flipped; bits below k are free (Table 2).
  // Among the matching window we pick the participant whose suffix is
  // closest to the node's own (the Pastry-style "closest matching" choice).
  const std::uint64_t preferred = util::flip_bit(node.id.cubical, static_cast<int>(k));
  const std::uint64_t window = 1ULL << k;
  const std::uint64_t base = preferred & ~(window - 1);
  if (selection_ == dht::NeighborSelection::kProximity) {
    // Proximity extension: scan every candidate matching the pattern and
    // keep the one with the lowest link latency (Pastry-style PNS).
    double best_latency = 1e300;
    for (std::size_t i = level.lower_bound(base);
         i < level.size() && level.key(i) < base + window; ++i) {
      const double latency =
          dht::torus_latency(handle_of(node.id), level.handle(i));
      if (latency < best_latency) {
        best_latency = latency;
        node.cubical_neighbor = level.handle(i);
      }
    }
  } else {
    node.cubical_neighbor = level.nearest_in(base, base + window, preferred);
  }

  // Cyclic neighbors: the first participants at cyclic index k-1 whose
  // cubical index is >= (larger) / <= (smaller) the node's own. The paper's
  // min/max formulas do not wrap, so nodes near the ends of the cubical
  // range may lack one of them.
  const std::size_t at_or_after = level.lower_bound(node.id.cubical);
  if (at_or_after < level.size()) {
    node.cyclic_larger = level.handle(at_or_after);
  }
  const std::size_t past = level.upper_bound(node.id.cubical);
  if (past > 0) node.cyclic_smaller = level.handle(past - 1);

  if (node.cubical_neighbor != old_cubical || node.cyclic_larger != old_larger ||
      node.cyclic_smaller != old_smaller) {
    note_maintenance();
  }
}

void CycloidNetwork::compute_leaf_sets(CycloidNode& node) {
  const auto old_leaves = node.leaves;
  // The four leaf sets, leaf_width entries each, packed in record order.
  const auto w = static_cast<std::size_t>(leaf_width_);
  NodeHandle* const inside_pred = node.leaves.data();
  NodeHandle* const inside_succ = inside_pred + w;
  NodeHandle* const outside_pred = inside_succ + w;
  NodeHandle* const outside_succ = outside_pred + w;

  // Inside leaf set: predecessors and successors on the local cycle — its
  // run [begin, end) of the large cycle, walked with wrap inside the run. A
  // single-member cycle points at itself (paper Sec. 3.3.1 case 2).
  const std::size_t begin = cycle_begin(node.id.cubical);
  const std::size_t end = cycle_end(node.id.cubical);
  const std::size_t self = ring_.index_of(space_.ring_position(node.id));
  std::size_t at = self;
  for (std::size_t i = 0; i < w; ++i) {
    at = (at == begin ? end : at) - 1;
    inside_pred[i] = ring_.handle(at);
  }
  at = self;
  for (std::size_t i = 0; i < w; ++i) {
    at = at + 1 == end ? begin : at + 1;
    inside_succ[i] = ring_.handle(at);
  }

  // Outside leaf set: primary nodes of the nearest preceding/succeeding
  // populated cycles on the large cycle (wrapping).
  std::uint64_t cubical = node.id.cubical;
  for (std::size_t i = 0; i < w; ++i) {
    cubical = preceding_cycle(cubical);
    outside_pred[i] = primary_of_cycle(cubical);
  }
  cubical = node.id.cubical;
  for (std::size_t i = 0; i < w; ++i) {
    cubical = succeeding_cycle(cubical);
    outside_succ[i] = primary_of_cycle(cubical);
  }

  // Maintenance accounting: only a state change costs a message exchange.
  if (node.leaves != old_leaves) note_maintenance();
}

void CycloidNetwork::refresh_leafsets_around(std::uint64_t cubical) {
  for (const std::uint64_t c : affected_cycles(cubical)) {
    for (std::size_t i = cycle_begin(c), end = cycle_end(c); i < end; ++i) {
      compute_leaf_sets(*node_of(ring_.handle(i)));
    }
  }
}

bool CycloidNetwork::key_in_leaf_range(const CycloidNode& node,
                                       const CccId& key) const {
  if (key.cubical == node.id.cubical) return true;
  // The farthest outside_pred and outside_succ entries bound the span.
  const auto w = static_cast<std::size_t>(leaf_width_);
  const NodeHandle farthest_pred = node.leaves[3 * w - 1];
  const NodeHandle farthest_succ = node.leaves[4 * w - 1];
  if (farthest_pred == kNoNode || farthest_succ == kNoNode) return true;
  const std::uint64_t lo = id_of(farthest_pred).cubical;
  const std::uint64_t hi = id_of(farthest_succ).cubical;
  if (lo == node.id.cubical || hi == node.id.cubical) return true;  // tiny net
  const std::uint64_t span =
      util::clockwise_distance(lo, hi, space_.cube_size());
  return util::clockwise_distance(lo, key.cubical, space_.cube_size()) <= span;
}

// --------------------------------------------------------------------------
// Key assignment

dht::NodeHandle CycloidNetwork::owner_of_id(const CccId& key) const {
  CYCLOID_EXPECTS(!ring_.empty());

  // The owner lives in one of the two populated cycles nearest to the key's
  // cubical index: the key's own cycle when populated, else the next one
  // clockwise (its run starts at `cw`) and the previous one (its run ends at
  // `ccw`). closeness_rank is a total order, so the scan order is moot.
  std::size_t cw = cycle_begin(key.cubical);
  if (cw == ring_.size()) cw = 0;
  const std::size_t ccw = ring_.prev(cw);
  const std::uint64_t cw_cycle = cubical_at(cw);
  const std::uint64_t ccw_cycle = cubical_at(ccw);

  NodeHandle best = kNoNode;
  std::uint64_t best_rank = ~0ULL;
  const auto consider = [&](std::size_t i) {
    const std::uint64_t rank =
        space_.closeness_rank(key, space_.from_ring_position(ring_.key(i)));
    if (rank < best_rank) {
      best_rank = rank;
      best = ring_.handle(i);
    }
  };
  for (std::size_t i = cw; i < ring_.size() && cubical_at(i) == cw_cycle; ++i) {
    consider(i);
  }
  if (cw_cycle != key.cubical && ccw_cycle != cw_cycle) {
    for (std::size_t i = ccw + 1; i-- > 0 && cubical_at(i) == ccw_cycle;) {
      consider(i);
    }
  }
  return best;
}

dht::NodeHandle CycloidNetwork::owner_of(dht::KeyHash key) const {
  return owner_of_id(key_id(key));
}

// --------------------------------------------------------------------------
// Lookup routing (paper Sec. 3.2, Fig. 3)

namespace {

/// Cycloid's step policy: the three-phase algorithm of paper Sec. 3.2
/// (ascending / descending / traverse cycle) with the leaf sets as the
/// universal fallback. Ascending/descending moves may legitimately increase
/// the numeric distance to the key, so they skip already-visited nodes
/// (engine-tracked) to rule out ping-pong in sparse networks; the traverse
/// moves strictly decrease it and need no such check.
class CycloidStepPolicy {
 public:
  CycloidStepPolicy(const CycloidNetwork& net, const CccId& key)
      : net_(net),
        key_(key),
        width_(static_cast<std::size_t>(net.leaf_width())) {}

  bool alive(NodeHandle node) const {
    return net_.position_slot(node) != dht::kNoSlot;
  }
  std::size_t slot_of(NodeHandle node) const {
    return net_.position_slot(node);
  }
  int default_max_hops() const {
    return 8 * util::ceil_log2(net_.space().size());
  }
  /// The three phases are each O(d); give the phase algorithm a generous
  /// budget and fall back to pure greedy leaf-set descent beyond it.
  int fallback_budget() const { return 8 * net_.space().dimension() + 16; }
  bool track_visited() const { return true; }

  // Two hints (DESIGN.md §14): the record holds the whole node, and the
  // liveness checks of next_hop read one position-table entry per
  // candidate. Stage 1 warms the record, the miss the lanes hide; stage 2
  // reads it to warm the entries, but GCC 12 finds prefetch_position free
  // of side effects and deletes those calls, so it emits no instruction.
  void prefetch(std::size_t slot) const { net_.prefetch_node(slot); }
  void prefetch_tables(std::size_t slot) const {
    const CycloidNode& cur = net_.node_at(slot);
    net_.prefetch_position(cur.cubical_neighbor);
    net_.prefetch_position(cur.cyclic_larger);
    net_.prefetch_position(cur.cyclic_smaller);
    for (std::size_t i = 0; i < 4 * width_; ++i) {
      net_.prefetch_position(cur.leaves[i]);
    }
  }

  dht::HopDecision next_hop(const dht::RouteState& state) {
    const CccSpace& space = net_.space();
    const CycloidNode& cur = net_.node_at(state.current_slot());
    // The record packs inside_pred, inside_succ, outside_pred and
    // outside_succ, width_ entries each.
    const NodeHandle* const inside = cur.leaves.data();
    const NodeHandle* const outside = inside + 2 * width_;
    const NodeHandle self = CycloidNetwork::handle_of(cur.id);

    // Contact every leaf-set member, whatever move this hop makes: joins
    // and graceful departures keep leaf sets alive, but after UNGRACEFUL
    // departures a leaf entry may be dead, and attempt() charges its
    // timeout to the hop that meets it. Only the traverse-cycle move and
    // the universal fallback rank the live ones (best_leaf). `live` is
    // written and read only below live_count; zeroing all 16 slots on
    // every hop cost Cycloid-11 ~5% of its lookup rate.
    std::array<NodeHandle, 4 * kMaxLeafWidth> live;
    std::size_t live_count = 0;
    for (std::size_t i = 0; i < 4 * width_; ++i) {
      const NodeHandle h = inside[i];
      if (h != self && state.attempt(*this, h)) live[live_count++] = h;
    }
    // Best strictly-improving live leaf, kNoNode when the current node is
    // the closest. An entry listed twice needs no dedup: a repeat cannot
    // beat itself under the strict rank comparison.
    const auto best_leaf = [&] {
      NodeHandle best = kNoNode;
      std::uint64_t best_rank = space.closeness_rank(key_, cur.id);
      for (std::size_t i = 0; i < live_count; ++i) {
        const std::uint64_t rank =
            space.closeness_rank(key_, CycloidNetwork::id_of(live[i]));
        if (rank < best_rank) {
          best_rank = rank;
          best = live[i];
        }
      }
      return best;
    };

    // Traverse-cycle phase: the target is within the leaf sets' span (or
    // the engine flipped us into guard mode) — forward to the numerically
    // closest leaf until the closest node is the current node itself.
    if (state.fallback() || net_.key_in_leaf_range(cur, key_)) {
      const NodeHandle leaf = best_leaf();
      if (leaf == kNoNode) {
        return dht::HopDecision::deliver();  // cur is the owner by local view
      }
      return dht::HopDecision::forward(leaf, CycloidNetwork::kTraverse,
                                       "leaf-set");
    }

    const int target_msdb = space.msdb(cur.id.cubical, key_.cubical);
    CYCLOID_ASSERT(target_msdb >= 0);  // equal cubical handled above
    const auto k = static_cast<int>(cur.id.cyclic);

    if (k < target_msdb) {
      // Ascending: forward to the outside-leaf-set node with the higher
      // cyclic index whose cubical index is numerically closest to the key.
      NodeHandle best = kNoNode;
      std::uint64_t best_dist = ~0ULL;
      for (std::size_t i = 0; i < 2 * width_; ++i) {
        const NodeHandle h = outside[i];
        if (h == kNoNode || state.was_visited(h)) continue;
        if (!state.attempt(*this, h)) continue;
        const CccId cand = CycloidNetwork::id_of(h);
        if (static_cast<int>(cand.cyclic) <= k) continue;
        const std::uint64_t dist =
            space.cubical_distance(cand.cubical, key_.cubical);
        if (dist < best_dist) {
          best_dist = dist;
          best = h;
        }
      }
      if (best != kNoNode) {
        return dht::HopDecision::forward(best, CycloidNetwork::kAscend,
                                         "outside-leaf");
      }
      // No higher-level outside neighbor (degenerate sparse cycles): fall
      // through to the leaf-set fallback below.
    } else if (k == target_msdb) {
      // Descending, cube edge: the cubical neighbor flips bit k, extending
      // the shared prefix with the key by at least one bit.
      const NodeHandle cube = cur.cubical_neighbor;
      if (!state.was_visited(cube) && state.attempt(*this, cube) &&
          space.msdb(CycloidNetwork::id_of(cube).cubical, key_.cubical) <
              target_msdb) {
        return dht::HopDecision::forward(cube, CycloidNetwork::kDescend,
                                         "cubical");
      }
      // Dead or missing cube edge: leaf-set fallback below.
    } else {
      // Descending, cycle edge: among the cyclic neighbors and the inside
      // leaf set, pick the node with cyclic index in [MSDB, k) that keeps
      // the shared prefix and is cubically closest to the key.
      NodeHandle best = kNoNode;
      std::uint64_t best_dist = ~0ULL;
      const auto consider = [&](NodeHandle h) {
        if (h != kNoNode && state.was_visited(h)) return;
        if (!state.attempt(*this, h)) return;
        const CccId cand = CycloidNetwork::id_of(h);
        const auto ck = static_cast<int>(cand.cyclic);
        if (ck < target_msdb || ck >= k) return;
        if (space.msdb(cand.cubical, key_.cubical) > target_msdb) return;
        const std::uint64_t dist =
            space.cubical_distance(cand.cubical, key_.cubical);
        if (dist < best_dist) {
          best_dist = dist;
          best = h;
        }
      };
      consider(cur.cyclic_larger);
      consider(cur.cyclic_smaller);
      for (std::size_t i = 0; i < 2 * width_; ++i) consider(inside[i]);
      if (best != kNoNode) {
        return dht::HopDecision::forward(best, CycloidNetwork::kDescend,
                                         "cyclic/inside");
      }
    }

    // Phase move unavailable (void or faulty links): "the message can be
    // forwarded to a node in the leaf sets" (paper Sec. 3.2).
    const NodeHandle leaf = best_leaf();
    if (leaf == kNoNode) {
      return dht::HopDecision::deliver();  // terminate at a live node
    }
    return dht::HopDecision::forward(leaf, CycloidNetwork::kTraverse,
                                     "leaf-fallback");
  }

 private:
  const CycloidNetwork& net_;
  const CccId key_;
  const std::size_t width_;
};
static_assert(dht::StepPolicy<CycloidStepPolicy>);

}  // namespace

void CycloidNetwork::route_batch(const dht::NodeHandle* froms,
                                 const dht::KeyHash* keys,
                                 std::size_t count, int width,
                                 dht::LookupMetrics& sink,
                                 dht::LookupResult* results,
                                 dht::BatchScratch& lanes,
                                 const dht::RouterOptions& options) const {
  dht::Router::route_batch(froms, keys, count, width, sink, results, lanes,
                           options, [this](NodeHandle from, dht::KeyHash key) {
                             CYCLOID_EXPECTS(contains(from));
                             return CycloidStepPolicy(*this, key_id(key));
                           });
}

// --------------------------------------------------------------------------
// Self-organization (paper Sec. 3.3)

dht::NodeHandle CycloidNetwork::join(std::uint64_t seed) {
  const CccId id = space_.id_from_hash(util::mix64(seed));
  if (!insert(id)) return kNoNode;
  return handle_of(id);
}

}  // namespace cycloid::ccc
