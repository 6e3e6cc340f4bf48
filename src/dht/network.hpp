// Abstract overlay-network interface.
//
// All DHTs built in this repository — Cycloid (the paper's contribution),
// and the Chord, Koorde, Viceroy, Pastry, and CAN comparators — implement
// this interface, so every experiment driver in src/exp runs unmodified
// against each of them. The simulation is message-level: a lookup is executed
// synchronously, hop by hop, and its cost is returned in a LookupResult.
//
// Routing core vs. mutation plane
// -------------------------------
// The routing hot path is const: `route_batch` (and `route`, its
// one-lookup case) only reads the membership and per-node routing state,
// and writes every side effect — hops, timeouts, learned repair
// promotions — into the caller-owned LookupMetrics sink.
// Concurrent lookups against the same network (each thread with its own
// sink) are therefore data-race-free, as long as no mutation-plane call
// (join/leave/fail_*/stabilize_*/absorb) runs concurrently with them. A
// caller that wants the repairs a lookup learned applied to the network
// hands its sink to absorb() afterwards.
//
// Each plane has one shared implementation; an overlay contributes a step
// policy for reads and its maintenance hooks for writes:
//
//               reads                           mutates
//   lookup ──► dht::Router ── StepPolicy ──► [overlay routing state]
//   join/leave/fail_*/stabilize_*
//          ──► DhtNetwork ── maintenance hooks ──► [overlay state]
//
// dht::Router (dht/router.hpp) owns the hop loop: each overlay's one
// route_batch override hands a per-lookup step-policy factory to
// Router::route_batch, which owns timeout detection, phase accounting,
// tracing, and the universal hop cap.
// DhtNetwork itself owns the mutation plane's shared machinery: departure
// sampling for the fail_* experiments, stale-entry bookkeeping,
// departure-semantics recording, the parallel stabilization pass, the
// dirty queue, and the per-cause maintenance counters charged through
// note_maintenance(). Each overlay overrides the private maintenance hooks
// (on_join, on_graceful_leave, on_vanish, refresh, ...) with its repair
// logic for one membership event: no sampling, no loops over victims, no
// accounting plumbing. The public calls bracket every hook in a cause
// scope, so a charge lands on the right cause's counter without the hook
// naming the cause.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "dht/maintenance.hpp"
#include "dht/metrics.hpp"
#include "dht/router.hpp"
#include "dht/slot_index.hpp"
#include "dht/types.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace cycloid::dht {

class DhtNetwork {
 public:
  virtual ~DhtNetwork() = default;

  DhtNetwork() = default;
  DhtNetwork(const DhtNetwork&) = delete;
  DhtNetwork& operator=(const DhtNetwork&) = delete;

  /// Human-readable overlay name ("Cycloid-7", "Viceroy", ...).
  virtual std::string name() const = 0;

  // Membership registry --------------------------------------------------
  // The base class owns the dense handle list of every overlay: a
  // swap-remove vector plus an open-addressing handle -> slot index
  // (SlotIndex), maintained by the overlays through
  // register_handle/unregister_handle. It gives O(1)
  // node_count/contains/random_node, and — because a node's position is
  // stable between membership changes — a *slot* identity that
  // ArenaNetwork (dht/arena.hpp) uses to store every overlay's node state
  // in one contiguous slot-aligned arena, and that the router carries from
  // hop to hop (the lookup hot path).

  /// Sentinel returned by slot_of for non-members (alias of dht::kNoSlot).
  static constexpr std::size_t kNoSlot = dht::kNoSlot;

  /// Number of live participants.
  std::size_t node_count() const noexcept { return handle_vec_.size(); }

  /// True when `node` is a live participant.
  bool contains(NodeHandle node) const { return handle_pos_.contains(node); }

  /// Uniformly random live node.
  NodeHandle random_node(util::Rng& rng) const {
    CYCLOID_EXPECTS(!handle_vec_.empty());
    return handle_vec_[static_cast<std::size_t>(
        rng.below(handle_vec_.size()))];
  }

  /// Dense slot of a live node in [0, node_count()), kNoSlot otherwise.
  /// Stable between membership changes; swap-remove reuses the departing
  /// node's slot for the tail node.
  std::size_t slot_of(NodeHandle node) const {
    return handle_pos_.lookup(node);
  }

  /// Inverse of slot_of for live slots.
  NodeHandle handle_at(std::size_t slot) const {
    CYCLOID_EXPECTS(slot < handle_vec_.size());
    return handle_vec_[slot];
  }

  /// Handles of all live nodes (ascending identifier order). The base
  /// implementation sorts a copy of the dense handle registry, which is the
  /// identifier order for every overlay whose handles compare like its
  /// identifiers — all of them except Viceroy (handles there are join
  /// serials; it overrides to walk its real-valued ring).
  virtual std::vector<NodeHandle> node_handles() const {
    std::vector<NodeHandle> handles(handle_vec_);
    std::sort(handles.begin(), handles.end());
    return handles;
  }

  /// Names of the routing phases reported in LookupResult::phase_hops.
  virtual std::vector<std::string> phase_names() const = 0;

  /// Ground truth: the node responsible for the key under this overlay's key
  /// assignment rule, computed from global knowledge (used to check lookup
  /// correctness, never by the routing itself).
  virtual NodeHandle owner_of(KeyHash key) const = 0;

  /// Route a lookup from `from` toward the node responsible for `key`,
  /// counting hops, timeouts, and per-phase costs into `sink`: a one-lookup
  /// route_batch at width 1. Same read-only/thread-safety contract as
  /// route_batch. Callers routing many lookups should batch them and reuse
  /// a BatchScratch instead.
  LookupResult route(NodeHandle from, KeyHash key, LookupMetrics& sink,
                     const RouterOptions& options) const {
    LookupResult result;
    BatchScratch lanes;
    route_batch(&from, &key, 1, 1, sink, &result, lanes, options);
    return result;
  }

  /// route() with default engine options.
  LookupResult lookup(NodeHandle from, KeyHash key,
                      LookupMetrics& sink) const {
    return route(from, key, sink, RouterOptions{});
  }

  /// The routing entry and the only per-overlay routing override: route
  /// `count` lookups with up to `width` kept in flight at once, by handing
  /// the overlay's step-policy factory to Router::route_batch (its
  /// interleaved hop loop — DESIGN.md §14). Read-only with respect to the
  /// network: safe to call from many threads at once (one sink per thread)
  /// provided no mutating member runs concurrently. Results land in
  /// `results[0..count)` in input order and every per-lookup result and
  /// sink total is identical to routing the same inputs one at a time —
  /// interleaving is a latency-hiding detail, never an observable one
  /// (pinned per overlay in tests/dht_conformance_test.cpp). `lanes` is
  /// caller-owned scratch (reused across batches for an allocation-free
  /// warm path). width <= 1 runs each lookup to completion in turn.
  virtual void route_batch(const NodeHandle* froms, const KeyHash* keys,
                           std::size_t count, int width, LookupMetrics& sink,
                           LookupResult* results, BatchScratch& lanes,
                           const RouterOptions& options) const = 0;

  /// The overlay's structural invariants that hold after every public
  /// call: at least that the membership registry, the node arena and the
  /// overlay's own indexes (rings, grids, tables) list the same members,
  /// each ring in ascending order. Cheap enough for tests to call after
  /// every operation; not valid during bulk construction, whose rings are
  /// unsorted. Invariants that hold only after a full refresh pass are not
  /// part of it.
  virtual bool check_invariants() const = 0;

  /// Let the overlay apply the repair promotions a finished batch learned
  /// (Koorde's backup promotion). The promotions run under the
  /// kLookupPromotion cause scope.
  void absorb(const LookupMetrics& batch) {
    CauseScope scope(*this, MaintenanceCause::kLookupPromotion);
    apply_repairs(batch);
  }

  // Mutation plane ---------------------------------------------------------
  // Non-join membership mutation is shared: the calls below sample victims,
  // install the cause scope for maintenance accounting, and invoke the
  // overlay's maintenance hooks (the private virtuals further down).

  /// Add one node whose identifier derives from `seed`; returns its handle
  /// (kNoNode if the derived identifier was already taken).
  virtual NodeHandle join(std::uint64_t seed) = 0;

  /// Graceful departure: the node notifies the neighbors its protocol says
  /// to notify; everything else goes stale until stabilization.
  void leave(NodeHandle node);

  /// Simultaneous graceful departures: every node leaves with probability p
  /// (paper Sec. 4.3). No stabilization runs afterwards.
  void fail_simultaneously(double p, util::Rng& rng) {
    depart_sample(p, rng, /*ungraceful=*/false);
  }

  /// Simultaneous UNGRACEFUL departures — nodes vanish without notifying
  /// anyone (the paper's future-work scenario, Sec. 5): even the eagerly
  /// maintained structures (leaf sets, successor lists) go stale, so
  /// lookups may fail until stabilization repairs them. Overlays whose
  /// maintenance model has no stale state (Viceroy, CAN — they repair
  /// incoming links as part of any membership change in this simulation)
  /// degrade to the graceful behaviour; last_departure_semantics() reports
  /// which semantics actually ran.
  void fail_ungraceful(double p, util::Rng& rng) {
    depart_sample(p, rng, /*ungraceful=*/true);
  }

  /// Single ungraceful departure: `node` vanishes without notifying anyone
  /// (the per-node counterpart of the sampling overload above, with the
  /// same eager-repair degradation). Used by churn tests that need to kill
  /// one specific traced hop.
  void fail_ungraceful(NodeHandle node);

  /// Semantics of the most recent fail_* call (kNone before the first) —
  /// distinguishes a genuine ungraceful run from the silent graceful
  /// degradation of the eager-repair overlays.
  DepartureSemantics last_departure_semantics() const noexcept {
    return last_semantics_;
  }

  /// True when departures may have left stale references that only a
  /// stabilization pass will repair (cleared by stabilize_all,
  /// stabilize_dirty and finish_bulk).
  bool has_stale_entries() const noexcept { return stale_; }

  /// Refresh one node's routing state from the live membership (the
  /// "system stabilization" the paper delegates repairs to).
  void stabilize_one(NodeHandle node);

  /// Refresh every node's routing state, fanning the per-node recomputation
  /// out over `threads` workers. Safe to parallelize because an overlay's
  /// refresh only reads the membership indexes (frozen for the duration of
  /// the pass) and other nodes' immutable identity fields, and writes only
  /// its own node's state (its maintenance charges are atomic adds). The
  /// resulting network state and the maintenance totals are identical at
  /// any thread count (DESIGN.md §9/§10). Leaves no node dirty: the queue
  /// is cleared.
  void stabilize_all(int threads = 1);

  // Incremental stabilization --------------------------------------------
  // With dirty tracking enabled, every membership event routes through the
  // overlay's dirty() hook, which enqueues exactly the nodes whose refresh
  // output the event changed; stabilize_dirty then refreshes only those
  // (same determinism contract as stabilize_all, DESIGN.md §11). Enable on
  // a freshly built or just-stabilized network so no pre-existing staleness
  // is silently skipped.

  /// Enable/disable dirty-neighborhood tracking. Enabling starts from an
  /// empty queue; pair it with a full pass (or a fresh build) so no
  /// pre-existing staleness is silently skipped.
  void set_dirty_tracking(bool enabled) {
    dirty_tracking_ = enabled;
    clear_dirty();
  }

  /// Drain the dirty queue: refresh exactly the still-live enqueued nodes,
  /// fanned over `threads` workers against frozen membership. The drain
  /// order is a sorted slot snapshot, so state and metrics are identical at
  /// any thread count, and the resulting state matches a full stabilize_all
  /// bit for bit (pinned in tests/maintenance_test.cpp). Live nodes left
  /// clean are counted into nodes_skipped_clean().
  void stabilize_dirty(int threads = 1);

  /// The handles queued for the next stabilize_dirty, each once, in enqueue
  /// order (tests compare a dirty() hook's marks against a reference
  /// through this view).
  const std::vector<NodeHandle>& dirty_queue() const noexcept {
    return dirty_queue_;
  }
  /// Cumulative live nodes stabilize_dirty skipped because they were clean
  /// (the work a full pass would have wasted).
  std::uint64_t nodes_skipped_clean() const noexcept {
    return nodes_skipped_clean_;
  }
  /// Cumulative dirty nodes stabilize_dirty refreshed.
  std::uint64_t nodes_refreshed_dirty() const noexcept {
    return nodes_refreshed_dirty_;
  }

  // Bulk construction ----------------------------------------------------
  // Builders populating a network from scratch bracket their insert loop
  // with begin_bulk()/finish_bulk(threads). Under bulk mode an overlay's
  // insert registers membership only — the per-insert routing-table
  // computation and neighbourhood refreshes (whose results the final
  // stabilize pass would discard anyway) are skipped — and finish_bulk
  // runs one stabilize_all(threads) pass over the final membership. The
  // final state is byte-identical to the incremental build on the same
  // insertion sequence (DESIGN.md §9). Incremental join()/leave() keep the
  // eager path: bulk mode is a builder-only protocol, never active during
  // churn.

  /// Enter bulk-construction mode. Must not already be in it.
  void begin_bulk() {
    CYCLOID_EXPECTS(!bulk_building_);
    bulk_building_ = true;
  }

  /// Leave bulk-construction mode and stabilize every node in one pass
  /// over `threads` workers. Traps when begin_bulk was not called.
  void finish_bulk(int threads = 1) {
    CYCLOID_EXPECTS(bulk_building_);
    bulk_building_ = false;
    stabilize_all(threads);
  }

  /// True between begin_bulk() and finish_bulk() — overlays consult this in
  /// insert to defer per-insert table work.
  bool bulk_building() const noexcept { return bulk_building_; }

  /// Maintenance-overhead accounting — the fifth DHT metric of paper
  /// Sec. 4: the number of per-node state updates the protocol performed
  /// (leaf-set/successor repairs on join/leave, stabilization refreshes).
  /// One update ~ one maintenance message exchange with that node. This
  /// call gives the four per-cause totals (join repair, leave repair,
  /// stabilization refresh, lookup-learned promotion).
  MaintenanceBreakdown maintenance_by_cause() const {
    return metrics_.by_cause();
  }
  /// The per-cause counters (total() is the grand total).
  const MaintenanceMetrics& maintenance_metrics() const { return metrics_; }
  /// Zero the per-cause counters and the two drain counters.
  void reset_maintenance() {
    metrics_.reset();
    nodes_skipped_clean_ = 0;
    nodes_refreshed_dirty_ = 0;
  }

 protected:
  /// Membership-registry hooks: overlays call these exactly where they
  /// insert/erase their node-state maps, so the registry and the overlay
  /// state are never observably out of sync.
  void register_handle(NodeHandle node) {
    handle_pos_.insert(node, handle_vec_.size());
    handle_vec_.push_back(node);
  }
  void unregister_handle(NodeHandle node) {
    const std::size_t pos = handle_pos_.lookup(node);
    CYCLOID_EXPECTS(pos != kNoSlot);
    const NodeHandle moved = handle_vec_.back();
    handle_vec_[pos] = moved;
    handle_pos_.set(moved, pos);
    handle_vec_.pop_back();
    handle_pos_.erase(node);
  }

  /// Overlay insert paths call this after membership registration so
  /// on_join runs under the join-repair cause scope (no-op during bulk
  /// construction: finish_bulk's pass rebuilds everything anyway).
  void notify_joined(NodeHandle node);

  /// Mutation-plane accounting: `updates` state changes performed by
  /// repair/stabilization machinery, charged under the active cause scope.
  /// Callable from the parallel stabilize workers (a charge is a relaxed
  /// atomic add).
  void note_maintenance(std::uint64_t updates = 1) {
    metrics_.charge(cause_, updates);
  }

  /// Queue `node` for the next stabilize_dirty. Deduplicated; no-op while
  /// dirty tracking is off or for kNoNode. Overlays call this from their
  /// dirty() hooks, and Koorde also from apply_repairs, whose
  /// lookup-learned promotions mutate state outside membership events.
  void mark_dirty(NodeHandle node) {
    if (!dirty_tracking_ || node == kNoNode || dirty_index_.contains(node)) {
      return;
    }
    dirty_index_.insert(node, dirty_queue_.size());
    dirty_queue_.push_back(node);
  }

 private:
  // Maintenance hooks ----------------------------------------------------
  // An overlay's repair logic, one hook per membership event. The public
  // mutation calls run them with the cause scope already set; they charge
  // via note_maintenance(updates).
  //
  // Contract (mirrors StepPolicy's, DESIGN.md §10):
  //  - on_join runs after the newcomer's membership registration, outside
  //    bulk mode only (finish_bulk's pass covers bulk builds).
  //  - on_graceful_leave unlinks `node` and performs the protocol's
  //    departure notifications/repairs.
  //  - on_vanish unlinks `node` and repairs nothing (silent departure). It
  //    is also the per-victim step of a graceful fail_simultaneously, whose
  //    repair_after_mass_leave runs once after all victims are gone.
  //  - refresh recomputes one node's state from live membership; it must
  //    tolerate a departed handle (return, don't trap), write only `node`'s
  //    state, and depend only on frozen membership — the stabilize_all
  //    parallel/determinism contract.
  //  - repairs_eagerly() == true declares that every membership change
  //    repairs all affected state inline (no stale entries), which makes
  //    ungraceful departures indistinguishable from graceful ones; the
  //    ungraceful fail_* calls then degrade to graceful semantics.

  virtual void on_join(NodeHandle node) = 0;
  virtual void on_graceful_leave(NodeHandle node) = 0;
  virtual void on_vanish(NodeHandle node) = 0;
  virtual void refresh(NodeHandle node) = 0;

  virtual bool repairs_eagerly() const { return false; }
  virtual void repair_after_mass_leave() {}

  /// Serial pre-pass hook: runs once on the pass-driving thread before
  /// stabilize_all/stabilize_dirty fan refresh() out to workers, with
  /// membership already frozen. Overlays use it to restore shared
  /// read-only invariants the concurrent refreshes depend on but must not
  /// repair themselves — Chord re-sorts its deferred bulk-build ring here.
  /// Must be deterministic (no randomness) so pass output stays
  /// thread-count independent. Default: nothing to restore.
  virtual void before_pass() {}

  /// Enqueue (via mark_dirty) every node whose refresh() output changes
  /// because of this membership event — the dirty-neighborhood hook behind
  /// stabilize_dirty (DESIGN.md §11).
  ///
  /// Contract:
  ///  - Called only while dirty tracking is enabled; for kJoin it runs after
  ///    on_join completed, for the departure events it runs before the
  ///    departure hook, with `node` still a live member (so the overlay can
  ///    still read its links to enumerate fan-in).
  ///  - The hook must be read-only on overlay state, draw no randomness, and
  ///    may over-enqueue (refresh of a clean node is a no-op) but never
  ///    under-enqueue: any node not enqueued here — and not already dirty
  ///    from an earlier event — is skipped by stabilize_dirty and must equal
  ///    its full-pass state bit for bit.
  ///  - The default is a no-op, correct only for overlays whose refresh()
  ///    reads nothing but eagerly-maintained state (Viceroy).
  virtual void dirty(MembershipEvent event, NodeHandle node) {
    (void)event;
    (void)node;
  }

  /// Apply the repair promotions a finished sink learned (Koorde promotes
  /// live backups into dead de Bruijn pointers); absorb runs it under the
  /// kLookupPromotion scope. Default: nothing to repair.
  virtual void apply_repairs(const LookupMetrics& batch) {
    (void)batch;
  }

  /// RAII cause scope: the mutation calls install one around every hook,
  /// so note_maintenance charges land on that cause.
  class CauseScope {
   public:
    CauseScope(DhtNetwork& net, MaintenanceCause cause)
        : net_(net), previous_(net.cause_) {
      net_.cause_ = cause;
    }
    ~CauseScope() { net_.cause_ = previous_; }
    CauseScope(const CauseScope&) = delete;
    CauseScope& operator=(const CauseScope&) = delete;

   private:
    DhtNetwork& net_;
    MaintenanceCause previous_;
  };

  /// The shared Bernoulli departure pass behind fail_simultaneously
  /// (`ungraceful == false`) and fail_ungraceful (`true`). Samples victims
  /// in node_handles() order — ascending identifier order, whatever the
  /// registry's slot order — so one seed picks the same victims from the
  /// same membership, and keeps at least one survivor.
  void depart_sample(double p, util::Rng& rng, bool ungraceful);

  /// Route a membership event through the dirty() hook (no-op when
  /// tracking is off).
  void note_event(MembershipEvent event, NodeHandle node) {
    if (dirty_tracking_) dirty(event, node);
  }

  /// Empty the dirty queue. Erasing the queued handles one by one, rather
  /// than clearing the index, keeps a warm index's buckets.
  void clear_dirty() {
    for (const NodeHandle node : dirty_queue_) dirty_index_.erase(node);
    dirty_queue_.clear();
  }

  /// Dense handle list + positions: O(1) random_node and removal, and the
  /// stable slot identity behind slot_of/handle_at.
  std::vector<NodeHandle> handle_vec_;
  SlotIndex handle_pos_;
  /// Between begin_bulk() and finish_bulk(): inserts defer table work.
  bool bulk_building_ = false;

  MaintenanceMetrics metrics_;
  /// Active cause for incoming charges. Defaults to kJoinRepair: join-time
  /// repair work runs inside the overlay's insert path (CAN's zone split
  /// cannot be separated from it), before any cause scope is installed.
  MaintenanceCause cause_ = MaintenanceCause::kJoinRepair;
  DepartureSemantics last_semantics_ = DepartureSemantics::kNone;
  bool stale_ = false;  ///< has_stale_entries()
  // Dirty-neighborhood plane: the insertion-ordered queue, and a
  // handle -> queue position index that dedupes it. The queue order never
  // reaches refresh (stabilize_dirty drains a sorted slot snapshot).
  bool dirty_tracking_ = false;
  std::vector<NodeHandle> dirty_queue_;
  SlotIndex dirty_index_;
  std::uint64_t nodes_skipped_clean_ = 0;
  std::uint64_t nodes_refreshed_dirty_ = 0;
};

}  // namespace cycloid::dht
