#include "viceroy/viceroy.hpp"

#include <cmath>

#include "hash/keys.hpp"
#include "util/bits.hpp"

namespace cycloid::viceroy {

namespace {

using dht::kNoNode;
using dht::LookupResult;
using dht::NodeHandle;

/// Clockwise distance from a to b on the unit ring.
double cw(double a, double b) noexcept {
  const double d = b - a;
  return d >= 0.0 ? d : d + 1.0;
}

}  // namespace

/// Viceroy's repair rules: every join and leave updates both outgoing AND
/// incoming connections immediately (the eager maintenance the paper's
/// conclusion criticizes), so nothing ever goes stale — repairs_eagerly()
/// is true, mass departures (graceful or not) reduce to plain unlinks, and
/// a refresh has nothing to do. The 7 + referencers charge models the
/// messages those eager updates cost; counting the incoming side scans the
/// membership, so it stays off unless accounting is enabled.
class ViceroyMaintenancePolicy final : public dht::MaintenancePolicy {
 public:
  explicit ViceroyMaintenancePolicy(ViceroyNetwork& net) : net_(net) {}

  bool repairs_eagerly() const override { return true; }

  void on_join(NodeHandle node) override {
    if (net_.count_maintenance_) {
      // The newcomer establishes its 7 links and every node whose links now
      // resolve to it must be told (Viceroy updates incoming connections).
      net_.note_maintenance(node, 7 + net_.count_referencers(node));
    }
  }

  void on_graceful_leave(NodeHandle node) override {
    CYCLOID_EXPECTS(net_.contains(node));
    // Departing Viceroy nodes update all incoming and outgoing connections;
    // links are resolved from the live membership, so removal is complete.
    if (net_.count_maintenance_) {
      net_.note_maintenance(node, 7 + net_.count_referencers(node));
    }
    net_.unlink(node);
  }

  void on_vanish(NodeHandle node) override { net_.unlink(node); }

  void before_pass() override {
    // Bulk construction appends to the rings unsorted (dht/sorted_ring.hpp);
    // settle() also traps on the id collision a bulk insert cannot probe.
    net_.ring_.settle();
    for (auto& level : net_.levels_) level.settle();
  }

  // Mass departures take the default on_mass_leave -> on_vanish path: the
  // simultaneous-failure experiment drops the victims without charging
  // (links re-resolve from whatever membership remains).

  void refresh(NodeHandle) override {
    // Links are maintained eagerly on every join/leave; nothing to refresh.
  }

  // dirty() keeps the base no-op: Viceroy stores no derived per-node state
  // at all (level links resolve against the live membership on every read),
  // so no membership event can leave any node's refresh output stale and
  // there is never anything to enqueue for run_incremental.

 private:
  ViceroyNetwork& net_;
};

ViceroyNetwork::ViceroyNetwork() {
  set_maintenance_policy(std::make_unique<ViceroyMaintenancePolicy>(*this));
}

std::unique_ptr<ViceroyNetwork> ViceroyNetwork::build_random(std::size_t count,
                                                             util::Rng& rng,
                                                             int threads) {
  auto net = std::make_unique<ViceroyNetwork>();
  CYCLOID_EXPECTS(count >= 1);
  const int max_level = std::max(1, util::ceil_log2(count));
  // Bulk mode appends to the rings and sorts them once in finish_bulk, where
  // an id collision traps (two equal 53-bit draws: p ~ 2^-20 at n = 2^17).
  net->begin_bulk();
  while (net->node_count() < count) {
    const double id = rng.uniform01();
    const int level = 1 + static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(max_level)));
    net->insert(id, level);
  }
  net->finish_bulk(threads);
  return net;
}

bool ViceroyNetwork::insert(double id, int level) {
  CYCLOID_EXPECTS(id >= 0.0 && id < 1.0);
  CYCLOID_EXPECTS(level >= 1);
  if (!bulk_building() && ring_.contains(id)) return false;

  const NodeHandle handle = next_serial_++;
  ViceroyNode& node = create_node(handle);
  node.id = id;
  node.level = level;
  ring_.insert(id, handle, bulk_building());
  if (levels_.size() < static_cast<std::size_t>(level)) {
    levels_.resize(static_cast<std::size_t>(level));
  }
  levels_[static_cast<std::size_t>(level - 1)].insert(id, handle,
                                                       bulk_building());
  notify_joined(handle);
  return true;
}

std::uint64_t ViceroyNetwork::count_referencers(NodeHandle handle) const {
  std::uint64_t referencers = 0;
  for (const NodeHandle other : ring_.handles()) {
    if (other == handle) continue;
    const ViceroyLinks links = links_of(other);
    if (links.ring_pred == handle || links.ring_succ == handle ||
        links.level_prev == handle || links.level_next == handle ||
        links.down_left == handle || links.down_right == handle ||
        links.up == handle) {
      ++referencers;
    }
  }
  return referencers;
}

void ViceroyNetwork::unlink(NodeHandle handle) {
  const ViceroyNode* node = node_of(handle);
  CYCLOID_EXPECTS(node != nullptr);
  // destroy_node swap-moves the arena tail into this slot, so the index
  // keys are copied out before the node object goes away.
  const double id = node->id;
  const int level = node->level;
  ring_.erase(id);
  levels_[static_cast<std::size_t>(level - 1)].erase(id);
  while (!levels_.empty() && levels_.back().empty()) levels_.pop_back();

  destroy_node(handle);
}

int ViceroyNetwork::max_level() const noexcept {
  return static_cast<int>(levels_.size());
}

std::vector<NodeHandle> ViceroyNetwork::node_handles() const {
  return ring_.handles();
}

std::vector<std::string> ViceroyNetwork::phase_names() const {
  return {"ascend", "descend", "ring"};
}

NodeHandle ViceroyNetwork::level_successor(int level, double id) const {
  if (level < 1 || level > max_level()) return kNoNode;
  const auto& peers = levels_[static_cast<std::size_t>(level - 1)];
  return peers.empty() ? kNoNode : peers.successor(id);
}

ViceroyLinks ViceroyNetwork::links_of(NodeHandle handle) const {
  const ViceroyNode* node = node_of(handle);
  CYCLOID_EXPECTS(node != nullptr);
  ViceroyLinks links;
  if (ring_.size() > 1) {
    const std::size_t self = ring_.index_of(node->id);
    links.ring_pred = ring_.handle(ring_.prev(self));
    links.ring_succ = ring_.handle(ring_.next(self));
  }

  // Level-ring neighbours among same-level nodes (wrapping), self excluded.
  {
    const auto& peers = levels_[static_cast<std::size_t>(node->level - 1)];
    if (peers.size() > 1) {
      const std::size_t self = peers.index_of(node->id);
      links.level_next = peers.handle(peers.next(self));
      links.level_prev = peers.handle(peers.prev(self));
    }
  }

  links.down_left = level_successor(node->level + 1, node->id);
  const double right_anchor =
      node->id + std::ldexp(1.0, -node->level) >= 1.0
          ? node->id + std::ldexp(1.0, -node->level) - 1.0
          : node->id + std::ldexp(1.0, -node->level);
  links.down_right = level_successor(node->level + 1, right_anchor);

  // Up link: the nearest node of the closest lower populated level.
  for (int level = node->level - 1; level >= 1; --level) {
    const NodeHandle up = level_successor(level, node->id);
    if (up != kNoNode) {
      links.up = up;
      break;
    }
  }
  return links;
}

NodeHandle ViceroyNetwork::owner_of(dht::KeyHash key) const {
  return ring_.successor(hash::reduce_unit(key));
}

namespace {

/// Viceroy's step policy: a three-stage machine — ascend to level 1 via up
/// links, descend the butterfly, then traverse via level-ring / ring
/// pointers. Links are resolved from the live membership at use time
/// (Viceroy's eager maintenance), so the policy never times out.
class ViceroyStepPolicy final : public dht::StepPolicy {
 public:
  ViceroyStepPolicy(const ViceroyNetwork& net, double target)
      : net_(net), target_(target) {}

  bool alive(NodeHandle node) const override { return net_.contains(node); }
  std::size_t slot_of(NodeHandle node) const override {
    return net_.slot_of(node);
  }
  /// Continuous identifier space: 8 * the 64 bits of the key hash.
  int default_max_hops() const override { return 8 * 64; }

  dht::HopDecision next_hop(const dht::RouteState& state) override {
    const NodeHandle self = state.current();
    const ViceroyNode& cur = net_.node_at(state.current_slot());

    // Stage 1 — ascend to a level-1 node via up links.
    if (stage_ == Stage::kAscending) {
      if (cur.level > 1) {
        const ViceroyLinks links = net_.links_of(self);
        if (links.up != kNoNode) {
          return dht::HopDecision::forward(links.up, ViceroyNetwork::kAscend,
                                           "up");
        }
      }
      stage_ = Stage::kDescending;
    }

    // Stage 2 — descend the butterfly: at level l, take the down-left link
    // when the target is within 2^-l clockwise, else down-right; stop at a
    // node with no down links, or when the down hop would jump past the
    // target (descending further can only overshoot — the traverse stage
    // finishes the approach).
    if (stage_ == Stage::kDescending) {
      const ViceroyLinks links = net_.links_of(self);
      const double dist = cw(cur.id, target_);
      const NodeHandle down = dist < std::ldexp(1.0, -cur.level)
                                  ? links.down_left
                                  : links.down_right;
      if (down != kNoNode && cw(cur.id, net_.node_state(down).id) <= dist) {
        return dht::HopDecision::forward(down, ViceroyNetwork::kDescend,
                                         "down");
      }
      stage_ = Stage::kTraversing;
    }

    // Stage 3 — traverse via level-ring / ring pointers toward the target's
    // successor, approaching from whichever side is nearer without stepping
    // over the target.
    const ViceroyLinks links = net_.links_of(self);
    const NodeHandle pred = links.ring_pred == kNoNode ? self : links.ring_pred;
    if (pred == self) return dht::HopDecision::deliver();  // singleton ring
    const double pred_id = net_.node_state(pred).id;
    // Owner test: target in (pred, cur].
    const double span = cw(pred_id, cur.id);
    const double off = cw(pred_id, target_);
    if (off > 0.0 && off <= span) return dht::HopDecision::deliver();
    if (target_ == cur.id) return dht::HopDecision::deliver();

    const NodeHandle candidates[] = {links.ring_pred,  links.ring_succ,
                                     links.level_prev, links.level_next,
                                     links.down_left,  links.down_right,
                                     links.up};

    const double d_cw = cw(cur.id, target_);   // travelling clockwise
    const double d_ccw = cw(target_, cur.id);  // sitting past the target

    NodeHandle choice = kNoNode;
    if (d_ccw <= d_cw) {
      // Past the target: walk back, staying at-or-after the target.
      double best = d_ccw;
      for (const NodeHandle h : candidates) {
        if (h == kNoNode || h == self) continue;
        const double gap = cw(target_, net_.node_state(h).id);
        if (gap < best) {
          best = gap;
          choice = h;
        }
      }
      if (choice == kNoNode) choice = links.ring_pred;
      return dht::HopDecision::forward(choice, ViceroyNetwork::kRing,
                                       "ring-back");
    }
    // Before the target: jump as far clockwise as possible without passing
    // it; if every link passes it, the ring successor is the target's owner.
    double best = 0.0;
    for (const NodeHandle h : candidates) {
      if (h == kNoNode || h == self) continue;
      const double gap = cw(cur.id, net_.node_state(h).id);
      if (gap <= d_cw && gap > best) {
        best = gap;
        choice = h;
      }
    }
    if (choice == kNoNode) choice = links.ring_succ;
    return dht::HopDecision::forward(choice, ViceroyNetwork::kRing,
                                     "ring-forward");
  }

 private:
  enum class Stage { kAscending, kDescending, kTraversing };

  const ViceroyNetwork& net_;
  const double target_;
  Stage stage_ = Stage::kAscending;
};

}  // namespace

void ViceroyNetwork::route_batch_impl(const NodeHandle* froms,
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
