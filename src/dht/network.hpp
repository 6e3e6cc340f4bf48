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
// Both planes are engine-owned; an overlay contributes only policies:
//
//               reads                           mutates
//   lookup ──► dht::Router ── StepPolicy ──► [overlay routing state]
//   join/leave/fail_*/stabilize_*
//          ──► dht::Maintainer ── MaintenancePolicy ──► [overlay state]
//
// dht::Router (dht/router.hpp) owns the hop loop: each overlay's one
// route_batch override hands a per-lookup step-policy factory to
// Router::route_batch, which owns timeout detection, phase accounting,
// tracing, and the universal hop cap.
// dht::Maintainer (dht/maintenance.hpp) owns the mutation plane's shared
// machinery: departure sampling for the fail_* experiments, stale-entry
// bookkeeping, departure-semantics recording, the parallel stabilization
// pass, and the per-cause maintenance counters charged through
// note_maintenance().
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
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
  // The base class owns the dense handle list every overlay used to keep
  // privately: a swap-remove vector plus an open-addressing handle -> slot
  // index (SlotIndex), maintained by the overlays through
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

  /// Let the overlay apply the repair promotions a finished batch learned
  /// (Koorde's backup promotion). The promotions run under the engine's
  /// kLookupPromotion cause scope.
  void absorb(const LookupMetrics& batch) {
    Maintainer::CauseScope scope(maintainer_,
                                 MaintenanceCause::kLookupPromotion);
    apply_repairs(batch);
  }

  // Mutation plane ---------------------------------------------------------
  // Non-join membership mutation is engine-owned: the calls below delegate
  // to this network's dht::Maintainer, which samples victims, installs the
  // cause scope for maintenance accounting, and invokes the overlay's
  // MaintenancePolicy hooks (dht/maintenance.hpp).

  /// Add one node whose identifier derives from `seed`; returns its handle
  /// (kNoNode if the derived identifier was already taken).
  virtual NodeHandle join(std::uint64_t seed) = 0;

  /// Graceful departure: the node notifies the neighbors its protocol says
  /// to notify; everything else goes stale until stabilization.
  void leave(NodeHandle node) { maintainer_.leave(node); }

  /// Simultaneous graceful departures: every node leaves with probability p
  /// (paper Sec. 4.3). No stabilization runs afterwards.
  void fail_simultaneously(double p, util::Rng& rng) {
    maintainer_.depart_sample(p, rng, /*ungraceful=*/false);
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
    maintainer_.depart_sample(p, rng, /*ungraceful=*/true);
  }

  /// Single ungraceful departure: `node` vanishes without notifying anyone
  /// (the per-node counterpart of the sampling overload above, with the
  /// same eager-repair degradation). Used by churn tests that need to kill
  /// one specific traced hop.
  void fail_ungraceful(NodeHandle node) { maintainer_.vanish(node); }

  /// Semantics of the most recent fail_* call (kNone before the first) —
  /// distinguishes a genuine ungraceful run from the silent graceful
  /// degradation of the eager-repair overlays.
  DepartureSemantics last_departure_semantics() const noexcept {
    return maintainer_.last_departure_semantics();
  }

  /// True when departures may have left stale references that only a
  /// stabilization pass will repair (cleared by stabilize_all/finish_bulk).
  bool has_stale_entries() const noexcept { return maintainer_.stale(); }

  /// Refresh one node's routing state from the live membership (the
  /// "system stabilization" the paper delegates repairs to).
  void stabilize_one(NodeHandle node) { maintainer_.refresh_one(node); }

  /// Refresh every node's routing state, fanning the per-node recomputation
  /// out over `threads` workers via Maintainer::run_pass. Safe to
  /// parallelize because a policy's refresh only reads the membership
  /// indexes (frozen for the duration of the pass) and other nodes'
  /// immutable identity fields, and writes only its own node's state (its
  /// maintenance charges are atomic adds). The resulting network state and
  /// the maintenance totals are identical at any thread count (DESIGN.md
  /// §9/§10).
  void stabilize_all(int threads = 1) { maintainer_.run_pass(threads); }

  // Incremental stabilization --------------------------------------------
  // With dirty tracking enabled, every membership event routes through the
  // policy's dirty() hook, which enqueues exactly the nodes whose refresh
  // output the event changed; stabilize_dirty then refreshes only those
  // (same determinism contract as stabilize_all, DESIGN.md §11). Enable on
  // a freshly built or just-stabilized network so no pre-existing staleness
  // is silently skipped.

  /// Enable/disable dirty-neighborhood tracking (starts from an empty
  /// queue).
  void set_dirty_tracking(bool enabled) {
    maintainer_.set_dirty_tracking(enabled);
  }
  bool dirty_tracking() const noexcept { return maintainer_.dirty_tracking(); }

  /// Drain the dirty queue: refresh exactly the still-live enqueued nodes,
  /// fanned over `threads` workers. State and metrics are identical at any
  /// thread count, and the resulting state matches a full stabilize_all
  /// bit for bit (pinned in tests/maintenance_test.cpp).
  void stabilize_dirty(int threads = 1) { maintainer_.run_incremental(threads); }

  /// The handles queued for the next stabilize_dirty, each once (tests
  /// compare a dirty() hook's marks against a reference through this
  /// view).
  const std::vector<NodeHandle>& dirty_queue() const noexcept {
    return maintainer_.dirty_queue();
  }
  /// Cumulative live nodes stabilize_dirty skipped because they were clean.
  std::uint64_t nodes_skipped_clean() const noexcept {
    return maintainer_.nodes_skipped_clean();
  }
  /// Cumulative dirty nodes stabilize_dirty refreshed.
  std::uint64_t nodes_refreshed_dirty() const noexcept {
    return maintainer_.nodes_refreshed_dirty();
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
    return maintainer_.metrics().by_cause();
  }
  /// The per-cause counters (total() is the grand total).
  const MaintenanceMetrics& maintenance_metrics() const {
    return maintainer_.metrics();
  }
  void reset_maintenance() { maintainer_.reset(); }

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

  /// Install the overlay's repair policy (every overlay constructor does
  /// this once, before any membership mutation).
  void set_maintenance_policy(std::unique_ptr<MaintenancePolicy> policy) {
    maintainer_.set_policy(std::move(policy));
  }

  /// Overlay insert paths call this after membership registration so the
  /// engine can run the policy's on_join under the join-repair cause scope
  /// (no-op during bulk construction).
  void notify_joined(NodeHandle node) { maintainer_.joined(node); }

  /// Overlay hook: apply the repair promotions a finished sink learned
  /// (Koorde promotes live backups into dead de Bruijn pointers). Default:
  /// nothing to repair.
  virtual void apply_repairs(const LookupMetrics& batch) {
    (void)batch;
  }

  /// Mutation-plane accounting: `updates` state changes performed by
  /// repair/stabilization machinery, charged under the engine's active
  /// cause scope. Callable from the parallel stabilize workers (a charge is
  /// a relaxed atomic add).
  void note_maintenance(std::uint64_t updates = 1) {
    maintainer_.charge(updates);
  }

  /// Queue `node` for the next stabilize_dirty (no-op while dirty tracking
  /// is off). Policies call this from their dirty() hooks; overlays whose
  /// state mutates outside membership events (Koorde's lookup-learned
  /// promotions in apply_repairs) call it directly.
  void mark_dirty(NodeHandle node) { maintainer_.mark_dirty(node); }

 private:
  /// Dense handle list + positions: O(1) random_node and removal, and the
  /// stable slot identity behind slot_of/handle_at.
  std::vector<NodeHandle> handle_vec_;
  SlotIndex handle_pos_;
  /// Between begin_bulk() and finish_bulk(): inserts defer table work.
  bool bulk_building_ = false;
  /// The mutation-plane engine (declared last; it only stores a reference
  /// to this network and never touches it during construction).
  Maintainer maintainer_{*this};
};

}  // namespace cycloid::dht
