#include "viceroy/viceroy.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "hash/keys.hpp"
#include "util/bits.hpp"

namespace cycloid::viceroy {

namespace {

using dht::kNoNode;
using dht::LookupResult;
using dht::NodeHandle;
using Ring = dht::SortedRing<double>;

/// Clockwise distance from a to b on the unit ring.
double cw(double a, double b) noexcept {
  const double d = b - a;
  return d >= 0.0 ? d : d + 1.0;
}

/// 2^-level, exactly, for a level in [0, 1022]: the IEEE-754 double with
/// that exponent and a zero mantissa (std::ldexp's value, without the call).
constexpr double inverse_power_of_two(int level) noexcept {
  return std::bit_cast<double>(static_cast<std::uint64_t>(1023 - level)
                               << 52);
}
static_assert(inverse_power_of_two(0) == 1.0 &&
              inverse_power_of_two(1) == 0.5 &&
              inverse_power_of_two(20) == 0x1p-20);

/// Where a level-`level` node at `id` aims its down-right link:
/// id + 2^-level, wrapped into [0, 1). The sum rounds, so subtracting
/// 2^-level from an anchor does not give back the id exactly.
double right_anchor(double id, int level) noexcept {
  const double anchor = id + inverse_power_of_two(level);
  return anchor >= 1.0 ? anchor - 1.0 : anchor;
}

/// How far a search by anchor widens its arc on each side: far more than
/// the rounding of right_anchor (at most 2^-53) and of the shifted ends.
constexpr double kAnchorSlack = 0x1p-40;

/// `v` from (-1, 2) wrapped into the unit ring.
double wrap_unit(double v) noexcept {
  return v < 0.0 ? v + 1.0 : v >= 1.0 ? v - 1.0 : v;
}

/// True when `key` lies on the clockwise arc (lo, hi]; lo == hi is the
/// full circle (a member's arc when it is alone on its ring).
bool on_arc(double key, double lo, double hi) noexcept {
  if (lo < hi) return lo < key && key <= hi;
  return lo == hi || lo < key || key <= hi;
}

ViceroyLink link_at(const Ring& ring, std::size_t i) {
  return {ring.handle(i), ring.key(i)};
}

/// Predecessor and successor links of member `i`; none on a ring of one.
std::pair<ViceroyLink, ViceroyLink> neighbours(const Ring& ring,
                                               std::size_t i) {
  if (ring.size() < 2) return {};
  return {link_at(ring, ring.prev(i)), link_at(ring, ring.next(i))};
}

/// The first member at or clockwise after `key`; none when `ring` is null
/// or empty.
ViceroyLink successor_link(const Ring* ring, double key) {
  if (ring == nullptr || ring->empty()) return {};
  const std::size_t at = ring->lower_bound(key);
  return link_at(*ring, at == ring->size() ? 0 : at);
}

/// Calls visit(i) for every member i whose key lies on the arc (lo, hi].
template <typename Visit>
void for_each_on_arc(const Ring& ring, double lo, double hi, Visit&& visit) {
  const std::size_t first = ring.upper_bound(lo);
  const std::size_t last = ring.upper_bound(hi);
  if (lo < hi) {
    for (std::size_t i = first; i < last; ++i) visit(i);
    return;
  }
  for (std::size_t i = first; i < ring.size(); ++i) visit(i);
  for (std::size_t i = 0; i < last; ++i) visit(i);
}

/// successor_link for a run of queries that never decreases, by one
/// forward pointer: a run of q queries costs O(q + |ring|). restart()
/// begins a new run.
class SuccessorSweep {
 public:
  explicit SuccessorSweep(const Ring* ring) : ring_(ring) {}

  ViceroyLink operator()(double query) {
    if (ring_ == nullptr || ring_->empty()) return {};
    while (next_ < ring_->size() && ring_->key(next_) < query) ++next_;
    return link_at(*ring_, next_ == ring_->size() ? 0 : next_);
  }

  void restart() noexcept { next_ = 0; }

 private:
  const Ring* ring_;
  std::size_t next_ = 0;
};

}  // namespace

// Viceroy's maintenance hooks: every join and leave updates both outgoing
// AND incoming connections immediately (the eager maintenance the paper's
// conclusion criticizes), so nothing ever goes stale — repairs_eagerly()
// is true, mass departures (graceful or not) reduce to plain unlinks, and
// a refresh has nothing to do. With accounting on, a join or leave charges
// 7 (the node's own links) plus the other nodes whose links it rewrote.

bool ViceroyNetwork::repairs_eagerly() const { return true; }

void ViceroyNetwork::on_join(NodeHandle node) {
  link_newcomer(node);
  if (count_maintenance_) {
    note_maintenance(7 + count_touched());
  }
}

void ViceroyNetwork::on_graceful_leave(NodeHandle node) {
  unlink(node);
  if (count_maintenance_) {
    note_maintenance(7 + count_touched());
  }
}

void ViceroyNetwork::on_vanish(NodeHandle node) { unlink(node); }

void ViceroyNetwork::before_pass() {
  // Bulk construction appends to the rings unsorted (dht/sorted_ring.hpp);
  // settle() also traps on the id collision a bulk insert cannot probe.
  // Only then can the links be filled.
  ring_.settle();
  for (auto& level : levels_) level.settle();
  if (fill_pending_) {
    fill_links();
    fill_pending_ = false;
  }
}

// Mass departures, graceful or not, run on_vanish per victim: the
// simultaneous-failure experiment drops the victims without charging,
// each unlink repairing the links that pointed at its victim.

void ViceroyNetwork::refresh(NodeHandle) {
  // Links are maintained eagerly on every join/leave; nothing to refresh.
}

// dirty() keeps the base no-op: every stored link is repaired inside the
// join or leave that moved it, so no membership event leaves any node's
// refresh output stale and there is never anything to enqueue for
// stabilize_dirty.

std::unique_ptr<ViceroyNetwork> ViceroyNetwork::build_random(std::size_t count,
                                                             util::Rng& rng) {
  auto net = std::make_unique<ViceroyNetwork>();
  CYCLOID_EXPECTS(count >= 1);
  const int max_level = std::max(1, util::ceil_log2(count));
  // Bulk mode appends to the rings and sorts them once in finish_bulk, where
  // an id collision traps (two equal 53-bit draws: p ~ 2^-20 at n = 2^17).
  net->reserve_nodes(count);
  net->begin_bulk();
  while (net->node_count() < count) {
    const double id = rng.uniform01();
    const int level = 1 + static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(max_level)));
    net->insert(id, level);
  }
  net->finish_bulk();
  return net;
}

bool ViceroyNetwork::insert(double id, int level) {
  CYCLOID_EXPECTS(id >= 0.0 && id < 1.0);
  CYCLOID_EXPECTS(level >= 1);
  const bool bulk = bulk_building();
  if (!bulk && ring_.contains(id)) return false;

  const NodeHandle handle = next_serial_++;
  ViceroyNode& node = create_node(handle);
  node.id = id;
  node.level = level;
  ring_.insert(id, handle, bulk);
  if (levels_.size() < static_cast<std::size_t>(level)) {
    levels_.resize(static_cast<std::size_t>(level));
  }
  levels_[static_cast<std::size_t>(level - 1)].insert(id, handle, bulk);
  fill_pending_ = fill_pending_ || bulk;
  notify_joined(handle);  // on_join links the newcomer (not in bulk mode)
  return true;
}

const Ring* ViceroyNetwork::level_ring(int level) const {
  if (level < 1 || level > max_level()) return nullptr;
  return &levels_[static_cast<std::size_t>(level - 1)];
}

int ViceroyNetwork::populated_after(int level) const {
  for (int l = level + 1; l <= max_level(); ++l) {
    if (!level_ring(l)->empty()) return l;
  }
  return 0;
}

int ViceroyNetwork::populated_before(int level) const {
  for (int l = std::min(level - 1, max_level()); l >= 1; --l) {
    if (!level_ring(l)->empty()) return l;
  }
  return 0;
}

ViceroyLinks ViceroyNetwork::resolve_links(double id, int level) const {
  ViceroyLinks links;
  std::tie(links[kRingPred], links[kRingSucc]) =
      neighbours(ring_, ring_.index_of(id));
  const Ring& peers = *level_ring(level);
  std::tie(links[kLevelPrev], links[kLevelNext]) =
      neighbours(peers, peers.index_of(id));
  const Ring* below = level_ring(level + 1);
  links[kDownLeft] = successor_link(below, id);
  links[kDownRight] = successor_link(below, right_anchor(id, level));
  // Up link: the nearest node of the closest populated level before this.
  links[kUp] = successor_link(level_ring(populated_before(level)), id);
  return links;
}

void ViceroyNetwork::fill_links() {
  // Every ring is walked in key order, and the queries each walk makes
  // into another ring never decrease, so SuccessorSweep answers them. The
  // walks only write records, and each ring's slot probes run first in a
  // loop of their own, so many misses stay in flight at once: one sweep of
  // the general ring that read each record's level made the whole build
  // 1.3x slower at 2^17.
  std::vector<std::size_t> slots;
  const auto probe_slots = [&](const Ring& ring) {
    slots.resize(ring.size());
    for (std::size_t i = 0; i < ring.size(); ++i) {
      slots[i] = slot_of(ring.handle(i));
    }
  };
  probe_slots(ring_);
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    ViceroyLinks& links = node_at(slots[i]).links;
    std::tie(links[kRingPred], links[kRingSucc]) = neighbours(ring_, i);
  }

  for (int level = 1; level <= max_level(); ++level) {
    const Ring& peers = *level_ring(level);
    probe_slots(peers);
    SuccessorSweep left(level_ring(level + 1));
    SuccessorSweep right(level_ring(level + 1));
    SuccessorSweep up(level_ring(populated_before(level)));
    double last_anchor = 0.0;
    for (std::size_t i = 0; i < peers.size(); ++i) {
      const double id = peers.key(i);
      // The anchors rise with the ids, except for one drop where they
      // wrap past 1.0.
      const double anchor = right_anchor(id, level);
      if (anchor < last_anchor) right.restart();
      last_anchor = anchor;
      ViceroyLinks& links = node_at(slots[i]).links;
      std::tie(links[kLevelPrev], links[kLevelNext]) = neighbours(peers, i);
      links[kDownLeft] = left(id);
      links[kDownRight] = right(anchor);
      links[kUp] = up(id);
    }
  }
}

void ViceroyNetwork::set_link(NodeHandle handle, LinkIndex which,
                              ViceroyLink target) {
  ViceroyLink& link = node_of(handle)->links[which];
  if (link == target) return;
  link = target;
  touched_.push_back(handle);
}

std::uint64_t ViceroyNetwork::count_touched() {
  std::sort(touched_.begin(), touched_.end());
  return static_cast<std::uint64_t>(
      std::unique(touched_.begin(), touched_.end()) - touched_.begin());
}

void ViceroyNetwork::relink_member(const Ring& ring, std::size_t i,
                                   LinkIndex pred, LinkIndex succ) {
  const auto [before, after] = neighbours(ring, i);
  set_link(ring.handle(i), pred, before);
  set_link(ring.handle(i), succ, after);
}

void ViceroyNetwork::retarget_down(int level, double lo, double hi,
                                   ViceroyLink target) {
  const Ring* parents = level_ring(level - 1);
  if (parents == nullptr) return;
  for_each_on_arc(*parents, lo, hi, [&](std::size_t i) {
    set_link(parents->handle(i), kDownLeft, target);
  });
  // A down-right link queries id + 2^-(level-1): search the arc shifted
  // back by that much, widened by the rounding, and confirm each candidate
  // with the very anchor the resolver computes.
  const double shift = inverse_power_of_two(level - 1);
  const double length = lo < hi ? hi - lo : lo > hi ? hi - lo + 1.0 : 1.0;
  const bool whole = length + 2.0 * kAnchorSlack >= 1.0;
  const double from = whole ? 0.0 : wrap_unit(lo - shift - kAnchorSlack);
  const double to = whole ? 0.0 : wrap_unit(hi - shift + kAnchorSlack);
  for_each_on_arc(*parents, from, to, [&](std::size_t i) {
    if (on_arc(right_anchor(parents->key(i), level - 1), lo, hi)) {
      set_link(parents->handle(i), kDownRight, target);
    }
  });
}

void ViceroyNetwork::retarget_up(int level, double lo, double hi,
                                 ViceroyLink target) {
  const Ring* children = level_ring(populated_after(level));
  if (children == nullptr) return;
  for_each_on_arc(*children, lo, hi, [&](std::size_t i) {
    set_link(children->handle(i), kUp, target);
  });
}

void ViceroyNetwork::link_newcomer(NodeHandle handle) {
  touched_.clear();
  ViceroyNode& node = *node_of(handle);
  const double id = node.id;
  const int level = node.level;
  node.links = resolve_links(id, level);

  const std::size_t at = ring_.index_of(id);
  if (ring_.size() > 1) {
    relink_member(ring_, ring_.prev(at), kRingPred, kRingSucc);
    relink_member(ring_, ring_.next(at), kRingPred, kRingSucc);
  }
  const Ring& peers = *level_ring(level);
  const std::size_t self = peers.index_of(id);
  if (peers.size() > 1) {
    relink_member(peers, peers.prev(self), kLevelPrev, kLevelNext);
    relink_member(peers, peers.next(self), kLevelPrev, kLevelNext);
  }
  // Every query on (level predecessor, id] now resolves to the newcomer —
  // the full circle when it is alone on its level.
  const double lo = peers.key(peers.prev(self));
  retarget_down(level, lo, id, {handle, id});
  retarget_up(level, lo, id, {handle, id});
}

void ViceroyNetwork::unlink(NodeHandle handle) {
  touched_.clear();
  const ViceroyNode* node = node_of(handle);
  CYCLOID_EXPECTS(node != nullptr);
  // destroy_node swap-moves the arena tail into this slot, so the index
  // keys are copied out before the node object goes away.
  const double id = node->id;
  const int level = node->level;
  Ring& peers = levels_[static_cast<std::size_t>(level - 1)];
  // The queries that resolved to the leaver: (level predecessor, id], the
  // full circle when it was alone on its level.
  const double lo = peers.key(peers.prev(peers.index_of(id)));
  ring_.erase(id);
  peers.erase(id);
  destroy_node(handle);

  if (!ring_.empty()) {
    const std::size_t next = ring_.lower_bound(id) % ring_.size();
    relink_member(ring_, ring_.prev(next), kRingPred, kRingSucc);
    relink_member(ring_, next, kRingPred, kRingSucc);
  }
  if (!peers.empty()) {
    const std::size_t next = peers.lower_bound(id) % peers.size();
    relink_member(peers, peers.prev(next), kLevelPrev, kLevelNext);
    relink_member(peers, next, kLevelPrev, kLevelNext);
    retarget_down(level, lo, id, link_at(peers, next));
    retarget_up(level, lo, id, link_at(peers, next));
  } else {
    // The level emptied: the down links into it vanish, and the up links
    // into it skip to the closest populated level before it.
    retarget_down(level, lo, id, {});
    if (const Ring* children = level_ring(populated_after(level))) {
      SuccessorSweep up(level_ring(populated_before(level)));
      for (std::size_t i = 0; i < children->size(); ++i) {
        set_link(children->handle(i), kUp, up(children->key(i)));
      }
    }
  }
  while (!levels_.empty() && levels_.back().empty()) levels_.pop_back();
}

int ViceroyNetwork::max_level() const noexcept {
  return static_cast<int>(levels_.size());
}

bool ViceroyNetwork::check_invariants() const {
  // Keys are distinct within each ring and a record has one id and one
  // level, so n member entries on the general ring, and n over the level
  // rings, name every member once. Level 0 stands for the general ring.
  const auto filed = [this](int level) {
    return [this, level](double id, NodeHandle handle) {
      const ViceroyNode* node = node_of(handle);
      return node != nullptr && node->id == id &&
             (level == 0 || node->level == level);
    };
  };
  if (ring_.size() != node_count() || !ring_.all_ascending(filed(0))) {
    return false;
  }
  std::size_t members = 0;
  for (int level = 1; level <= max_level(); ++level) {
    members += level_ring(level)->size();
    if (!level_ring(level)->all_ascending(filed(level))) return false;
  }
  return members == node_count() &&
         (levels_.empty() || !levels_.back().empty());
}

std::vector<NodeHandle> ViceroyNetwork::node_handles() const {
  return ring_.handles();
}

std::vector<std::string> ViceroyNetwork::phase_names() const {
  return {"ascend", "descend", "ring"};
}

NodeHandle ViceroyNetwork::owner_of(dht::KeyHash key) const {
  return ring_.successor(hash::reduce_unit(key));
}

namespace {

/// Viceroy's step policy: a three-stage machine — ascend to level 1 via up
/// links, descend the butterfly, then traverse via level-ring / ring
/// pointers. Every decision reads only the current node's record: the
/// stored links carry their targets' ids, and eager maintenance keeps them
/// fresh, so the policy never times out.
class ViceroyStepPolicy {
 public:
  ViceroyStepPolicy(const ViceroyNetwork& net, double target)
      : net_(net), target_(target) {}

  std::size_t slot_of(NodeHandle node) const { return net_.slot_of(node); }
  /// Continuous identifier space: 8 * the 64 bits of the key hash.
  int default_max_hops() const { return 8 * 64; }

  dht::HopDecision next_hop(const dht::RouteState& state) {
    const ViceroyNode& cur = net_.node_at(state.current_slot());
    const ViceroyLinks& links = cur.links;

    // Stage 1 — ascend to a level-1 node via up links (a level-1 node has
    // none).
    if (stage_ == Stage::kAscending) {
      if (links[kUp].node != kNoNode) {
        return dht::HopDecision::forward(links[kUp].node,
                                         ViceroyNetwork::kAscend, "up");
      }
      stage_ = Stage::kDescending;
    }

    // Stage 2 — descend the butterfly: at level l, take the down-left link
    // when the target is within 2^-l clockwise, else down-right; stop at a
    // node with no down links, or when the down hop would jump past the
    // target (descending further can only overshoot — the traverse stage
    // finishes the approach).
    if (stage_ == Stage::kDescending) {
      const double dist = cw(cur.id, target_);
      const ViceroyLink& down = dist < inverse_power_of_two(cur.level)
                                    ? links[kDownLeft]
                                    : links[kDownRight];
      if (down.node != kNoNode && cw(cur.id, down.id) <= dist) {
        return dht::HopDecision::forward(down.node, ViceroyNetwork::kDescend,
                                         "down");
      }
      stage_ = Stage::kTraversing;
    }

    // Stage 3 — traverse via level-ring / ring pointers toward the target's
    // successor, approaching from whichever side is nearer without stepping
    // over the target.
    const ViceroyLink& pred = links[kRingPred];
    if (pred.node == kNoNode) return dht::HopDecision::deliver();  // alone
    // Owner test: target in (pred, cur].
    const double span = cw(pred.id, cur.id);
    const double off = cw(pred.id, target_);
    if (off > 0.0 && off <= span) return dht::HopDecision::deliver();
    if (target_ == cur.id) return dht::HopDecision::deliver();

    const double d_cw = cw(cur.id, target_);   // travelling clockwise
    const double d_ccw = cw(target_, cur.id);  // sitting past the target

    // No link points at the node itself, so every present link is a
    // candidate, taken in LinkIndex order.
    NodeHandle choice = kNoNode;
    if (d_ccw <= d_cw) {
      // Past the target: walk back, staying at-or-after the target.
      double best = d_ccw;
      for (const ViceroyLink& link : links) {
        if (link.node == kNoNode) continue;
        const double gap = cw(target_, link.id);
        if (gap < best) {
          best = gap;
          choice = link.node;
        }
      }
      if (choice == kNoNode) choice = pred.node;
      return dht::HopDecision::forward(choice, ViceroyNetwork::kRing,
                                       "ring-back");
    }
    // Before the target: jump as far clockwise as possible without passing
    // it; if every link passes it, the ring successor is the target's owner.
    double best = 0.0;
    for (const ViceroyLink& link : links) {
      if (link.node == kNoNode) continue;
      const double gap = cw(cur.id, link.id);
      if (gap <= d_cw && gap > best) {
        best = gap;
        choice = link.node;
      }
    }
    if (choice == kNoNode) choice = links[kRingSucc].node;
    return dht::HopDecision::forward(choice, ViceroyNetwork::kRing,
                                     "ring-forward");
  }

 private:
  enum class Stage { kAscending, kDescending, kTraversing };

  const ViceroyNetwork& net_;
  const double target_;
  Stage stage_ = Stage::kAscending;
};
static_assert(dht::StepPolicy<ViceroyStepPolicy>);

}  // namespace

void ViceroyNetwork::route_batch(const NodeHandle* froms,
                                 const dht::KeyHash* keys,
                                 std::size_t count, int width,
                                 dht::LookupMetrics& sink,
                                 LookupResult* results,
                                 dht::BatchScratch& lanes,
                                 const dht::RouterOptions& options) const {
  dht::Router::route_batch(
      froms, keys, count, width, sink, results, lanes, options,
      [this](NodeHandle from, dht::KeyHash key) {
        CYCLOID_EXPECTS(contains(from));
        return ViceroyStepPolicy(*this, hash::reduce_unit(key));
      });
}

NodeHandle ViceroyNetwork::join(std::uint64_t seed) {
  const std::uint64_t h = util::mix64(seed);
  const double id = hash::reduce_unit(h);
  const int estimate_levels =
      std::max(1, util::ceil_log2(static_cast<std::uint64_t>(node_count()) + 1));
  const int level =
      1 + static_cast<int>(util::mix64(h ^ 0x1ee7c0deULL) %
                           static_cast<std::uint64_t>(estimate_levels));
  if (!insert(id, level)) return kNoNode;
  return next_serial_ - 1;
}

}  // namespace cycloid::viceroy
