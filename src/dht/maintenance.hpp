// The maintenance engine — the mutation-plane sibling of dht::Router.
//
// dht::Maintainer owns the machinery the seven overlays used to duplicate:
// departure sampling for fail_simultaneously/fail_ungraceful (one
// registry-driven Bernoulli pass, preserving each overlay's pre-engine RNG
// draw sequence on fixed seeds), the stale-entry bookkeeping that used to be
// implicit per overlay, a record of which departure semantics actually ran
// (ungraceful requests silently degrade to graceful for overlays that repair
// eagerly), and one maintenance counter per cause.
//
// An overlay participates by registering a MaintenancePolicy — its repair
// logic for one membership event, with no sampling, no loops over victims,
// and no accounting plumbing. The engine brackets every policy call in a
// cause scope, so `note_maintenance()` charges land on the right cause's
// counter without the policy naming the cause.
//
// Parallel passes: Maintainer::run_pass(threads) fans policy->refresh over
// the frozen slot range. Determinism and TSan-cleanness rest on the same
// contract as DhtNetwork::stabilize_all always had (DESIGN.md §9). A charge
// is a relaxed atomic add, and integer sums do not depend on order, so the
// per-cause totals are identical at any thread count.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "dht/types.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace cycloid::dht {

class DhtNetwork;

/// Why a maintenance update happened — one counter each (paper Sec. 4's
/// fifth metric, broken down by protocol activity).
enum class MaintenanceCause : std::size_t {
  /// Repairs triggered by an arrival: the newcomer's table build plus the
  /// neighbourhood refreshes around it.
  kJoinRepair = 0,
  /// Repairs triggered by departures, graceful or not (single leaves and
  /// the mass-departure experiments).
  kLeaveRepair = 1,
  /// Periodic stabilization refreshes (stabilize_one / run_pass).
  kStabilizeRefresh = 2,
  /// Repair promotions learned by lookups and applied on absorb()
  /// (Koorde's backup promotion).
  kLookupPromotion = 3,
};
inline constexpr std::size_t kMaintenanceCauses = 4;

/// Stable short name for reports and JSON fields ("join", "leave",
/// "refresh", "promotion").
std::string maintenance_cause_name(MaintenanceCause cause);

/// Per-cause update counts (indexed by MaintenanceCause).
using MaintenanceBreakdown = std::array<std::uint64_t, kMaintenanceCauses>;

/// The membership event a dirty() hook is being asked about. Mirrors the
/// MaintenancePolicy entry points one-to-one so a policy can distinguish
/// "eagerly repaired" events (whose dirty sets are small) from silent
/// departures (whose stale fan-in must be enumerated conservatively).
enum class MembershipEvent {
  kJoin = 0,          ///< on_join is about to complete for this node
  kGracefulLeave = 1, ///< on_graceful_leave is about to run (node still live)
  kVanish = 2,        ///< on_vanish is about to run (node still live)
  kMassLeave = 3,     ///< on_mass_leave per-victim step (node still live)
};

/// Which departure semantics a fail_* call actually executed. Ungraceful
/// requests degrade to graceful on overlays whose maintenance model repairs
/// eagerly and keeps no stale state (Viceroy, CAN).
enum class DepartureSemantics {
  kNone = 0,       ///< no mass departure ran yet
  kGraceful = 1,   ///< victims notified their neighbours; repairs ran
  kUngraceful = 2, ///< victims vanished silently; state left stale
};

/// The maintenance counters: one total per cause. Charges are relaxed
/// atomic adds, so the workers of a parallel pass may charge at once;
/// nothing is kept per node.
class MaintenanceMetrics {
 public:
  /// Charge `updates` state changes under `cause`. Safe from any thread.
  void charge(MaintenanceCause cause, std::uint64_t updates) {
    by_cause_[static_cast<std::size_t>(cause)].fetch_add(
        updates, std::memory_order_relaxed);
  }

  /// Sum over all causes — the overlay's total maintenance overhead.
  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : by_cause()) sum += v;
    return sum;
  }

  /// All four per-cause totals at once.
  MaintenanceBreakdown by_cause() const {
    MaintenanceBreakdown out{};
    for (std::size_t c = 0; c < kMaintenanceCauses; ++c) {
      out[c] = by_cause_[c].load(std::memory_order_relaxed);
    }
    return out;
  }

  void reset() {
    for (std::atomic<std::uint64_t>& count : by_cause_) {
      count.store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::array<std::atomic<std::uint64_t>, kMaintenanceCauses> by_cause_{};
};

/// An overlay's repair logic, one hook per membership event. Hooks run with
/// the engine's cause scope already set; they charge via
/// DhtNetwork::note_maintenance(updates) exactly as the pre-engine bodies
/// did.
///
/// Contract (mirrors StepPolicy's, DESIGN.md §10):
///  - on_join runs after the newcomer's membership registration, outside
///    bulk mode only (finish_bulk's run_pass covers bulk builds).
///  - on_graceful_leave unlinks `node` and performs the protocol's
///    departure notifications/repairs.
///  - on_vanish unlinks `node` and repairs nothing (silent departure).
///  - on_mass_leave is the per-victim step of fail_simultaneously; the
///    default (on_vanish) fits overlays that defer mass repair to
///    repair_after_mass_leave, which runs once after all victims are gone.
///  - refresh recomputes one node's state from live membership; it must
///    tolerate a departed handle (return, don't trap), write only `node`'s
///    state, and depend only on frozen membership — the run_pass parallel/
///    determinism contract.
///  - repairs_eagerly() == true declares that every membership change
///    repairs all affected state inline (no stale entries), which makes
///    ungraceful departures indistinguishable from graceful ones; the
///    engine then degrades fail_ungraceful to graceful semantics.
class MaintenancePolicy {
 public:
  virtual ~MaintenancePolicy() = default;

  virtual void on_join(NodeHandle node) = 0;
  virtual void on_graceful_leave(NodeHandle node) = 0;
  virtual void on_vanish(NodeHandle node) = 0;
  virtual void refresh(NodeHandle node) = 0;

  virtual bool repairs_eagerly() const { return false; }
  virtual void on_mass_leave(NodeHandle node) { on_vanish(node); }
  virtual void repair_after_mass_leave() {}

  /// Serial pre-pass hook: runs once on the pass-driving thread before
  /// run_pass/run_incremental fan refresh() out to workers, with membership
  /// already frozen. Overlays use it to restore shared read-only invariants
  /// the concurrent refreshes depend on but must not repair themselves —
  /// Chord re-sorts its deferred bulk-build ring here. Must be
  /// deterministic (no randomness) so pass output stays thread-count
  /// independent. Default: nothing to restore.
  virtual void before_pass() {}

  /// Enqueue (via Maintainer::mark_dirty) every node whose refresh() output
  /// changes because of this membership event — the dirty-neighborhood hook
  /// behind run_incremental (DESIGN.md §11).
  ///
  /// Contract:
  ///  - Called only while dirty tracking is enabled; for kJoin it runs after
  ///    on_join completed, for the three departure events it runs before the
  ///    departure hook, with `node` still a live member (so the policy can
  ///    still read its links to enumerate fan-in).
  ///  - The hook must be read-only on overlay state, draw no randomness, and
  ///    may over-enqueue (refresh of a clean node is a no-op) but never
  ///    under-enqueue: any node not enqueued here — and not already dirty
  ///    from an earlier event — is skipped by run_incremental and must equal
  ///    its full-pass state bit for bit.
  ///  - The default is a no-op, correct only for overlays whose refresh()
  ///    reads nothing but eagerly-maintained state (Viceroy).
  virtual void dirty(MembershipEvent event, NodeHandle node) {
    (void)event;
    (void)node;
  }
};

/// The engine. DhtNetwork owns one and delegates its entire non-join
/// mutation surface (leave / fail_simultaneously / fail_ungraceful /
/// stabilize_one / stabilize_all) to it; overlays install their policy at
/// construction and keep only event-local repair code.
class Maintainer {
 public:
  explicit Maintainer(DhtNetwork& net) : net_(net) {}
  Maintainer(const Maintainer&) = delete;
  Maintainer& operator=(const Maintainer&) = delete;

  void set_policy(std::unique_ptr<MaintenancePolicy> policy) {
    policy_ = std::move(policy);
  }

  // Entry points (each brackets the policy in its cause scope) -----------

  /// A node finished membership registration. No-op while the network is
  /// bulk-building (finish_bulk's pass rebuilds everything anyway).
  void joined(NodeHandle node);

  /// Graceful single departure.
  void leave(NodeHandle node);

  /// Ungraceful single departure: `node` vanishes without notifying anyone,
  /// leaving every reference to it stale until stabilization. Degrades to
  /// graceful semantics on overlays that repair eagerly (like
  /// depart_sample's ungraceful path, recorded the same way).
  void vanish(NodeHandle node);

  /// The shared Bernoulli departure pass behind fail_simultaneously
  /// (`ungraceful == false`) and fail_ungraceful (`true`). Samples victims
  /// from node_handles() — ascending identifier order, the exact order
  /// (and therefore RNG draw sequence) of every pre-engine per-overlay
  /// loop — and keeps at least one survivor.
  void depart_sample(double p, util::Rng& rng, bool ungraceful);

  /// Refresh one node's state (the churn driver's per-node stabilization
  /// timer).
  void refresh_one(NodeHandle node);

  /// Refresh every node, fanned over `threads` workers against frozen
  /// membership. State and metrics are identical at any thread count.
  /// Leaves no node dirty: the queue is cleared.
  void run_pass(int threads);

  // Incremental stabilization --------------------------------------------

  /// Enable/disable dirty-neighborhood tracking. While enabled, every
  /// membership event routes through the policy's dirty() hook and
  /// run_incremental refreshes only the enqueued nodes. Enabling starts
  /// from an empty queue; pair it with a full pass (or a fresh build) so no
  /// pre-existing staleness is silently skipped.
  void set_dirty_tracking(bool enabled) {
    dirty_tracking_ = enabled;
    clear_dirty();
  }
  bool dirty_tracking() const noexcept { return dirty_tracking_; }

  /// Record `node` as needing a refresh on the next run_incremental.
  /// Deduplicated; no-op while tracking is disabled or for kNoNode.
  /// Policies call this from dirty(); the Koorde network also calls it when
  /// absorb() applies lookup-learned repairs.
  void mark_dirty(NodeHandle node) {
    if (!dirty_tracking_ || node == kNoNode) return;
    if (dirty_set_.insert(node).second) dirty_queue_.push_back(node);
  }

  /// Drain the dirty queue: refresh exactly the enqueued nodes that are
  /// still live, fanned over `threads` workers against frozen membership
  /// under the same determinism contract as run_pass (the drain order is a
  /// sorted slot snapshot, so state and metrics are identical at any thread
  /// count). Nodes left clean are counted into nodes_skipped_clean().
  void run_incremental(int threads);

  /// Handles currently queued for the next incremental drain, each once,
  /// in enqueue order.
  const std::vector<NodeHandle>& dirty_queue() const noexcept {
    return dirty_queue_;
  }

  /// Cumulative count of live nodes a run_incremental did NOT refresh
  /// because they were clean (the work a full pass would have wasted).
  std::uint64_t nodes_skipped_clean() const noexcept {
    return nodes_skipped_clean_;
  }
  /// Cumulative count of dirty nodes run_incremental refreshed.
  std::uint64_t nodes_refreshed_dirty() const noexcept {
    return nodes_refreshed_dirty_;
  }

  // Bookkeeping ----------------------------------------------------------

  /// Semantics of the most recent depart_sample (kNone before the first).
  DepartureSemantics last_departure_semantics() const noexcept {
    return last_semantics_;
  }

  /// True when departures may have left stale references that only a
  /// stabilization pass will repair; cleared by run_pass.
  bool stale() const noexcept { return stale_; }

  /// Charge `updates` under the active cause scope
  /// (DhtNetwork::note_maintenance is the public face of this).
  void charge(std::uint64_t updates) { metrics_.charge(cause_, updates); }

  const MaintenanceMetrics& metrics() const noexcept { return metrics_; }
  void reset() {
    metrics_.reset();
    nodes_skipped_clean_ = 0;
    nodes_refreshed_dirty_ = 0;
  }

  /// RAII cause scope; entry points install these around policy calls, and
  /// DhtNetwork::absorb wraps apply_repairs in a kLookupPromotion scope.
  class CauseScope {
   public:
    CauseScope(Maintainer& maintainer, MaintenanceCause cause)
        : maintainer_(maintainer), previous_(maintainer.cause_) {
      maintainer_.cause_ = cause;
    }
    ~CauseScope() { maintainer_.cause_ = previous_; }
    CauseScope(const CauseScope&) = delete;
    CauseScope& operator=(const CauseScope&) = delete;

   private:
    Maintainer& maintainer_;
    MaintenanceCause previous_;
  };

 private:
  MaintenancePolicy& policy() {
    CYCLOID_EXPECTS(policy_ != nullptr);
    return *policy_;
  }

  void clear_dirty() {
    dirty_queue_.clear();
    dirty_set_.clear();
  }

  /// Route a membership event through the policy's dirty() hook (no-op when
  /// tracking is off).
  void note_event(MembershipEvent event, NodeHandle node) {
    if (dirty_tracking_) policy().dirty(event, node);
  }

  DhtNetwork& net_;
  std::unique_ptr<MaintenancePolicy> policy_;
  MaintenanceMetrics metrics_;
  /// Active cause for incoming charges. Defaults to kJoinRepair: join-time
  /// repair work runs inside the overlay's insert path (CAN's zone split
  /// cannot be separated from it), before any engine scope is installed.
  MaintenanceCause cause_ = MaintenanceCause::kJoinRepair;
  DepartureSemantics last_semantics_ = DepartureSemantics::kNone;
  bool stale_ = false;
  // Dirty-neighborhood plane: insertion-ordered queue + dedupe set. The
  // queue order never reaches refresh (run_incremental drains a sorted slot
  // snapshot), it only bounds memory via dedupe.
  bool dirty_tracking_ = false;
  std::vector<NodeHandle> dirty_queue_;
  std::unordered_set<NodeHandle> dirty_set_;
  std::uint64_t nodes_skipped_clean_ = 0;
  std::uint64_t nodes_refreshed_dirty_ = 0;
};

}  // namespace cycloid::dht
