// The shared routing engine: one hop loop for every overlay.
//
// The simulator is message-level — a lookup is a sequence of hop decisions.
// dht::Router owns the hop loop end to end, and Router::route_batch is its
// only entry: DhtNetwork::route is a one-lookup batch at width 1. An overlay
// contributes a *step policy*: given the current position, decide the next
// hop (forward / deliver / fail) with a phase tag. The engine handles
// everything that is the same for every overlay:
//
//   - dead-neighbour timeout detection: RouteState::attempt() charges one
//     timeout per *distinct* departed node contacted (paper Sec. 4.3) and
//     RouteState::resolve_chain() walks primary-then-backup pointer chains,
//     consulting and recording sink learn_link/mark_broken repairs;
//   - per-phase hop accounting;
//   - leaf-set/guard fallback bookkeeping: policies with a finite
//     fallback_budget() are flipped into fallback mode (and the flip is
//     counted in LookupMetrics::guard_fallbacks) once the step count
//     exceeds it;
//   - optional per-hop route tracing with link-latency accumulation
//     (RouterOptions::trace, one lane at a time; the receivers it records
//     are what Fig. 10's per-node query load counts);
//   - a universal hop cap that turns would-be infinite routing loops into
//     an explicit LookupStatus::kHopLimit instead of a hang;
//   - interleaving: up to kMaxBatchWidth lookups in flight as round-robin
//     lanes, each position given its policy's prefetch hints (prefetch as
//     the lane moves there, where it pays, then prefetch_tables one
//     rotation later) so one lane's DRAM misses overlap the other lanes'
//     compute (DESIGN.md Sec. 14).
//
// A step policy is a plain type checked by the StepPolicy concept, and
// route_batch is instantiated for each concrete policy, so no hop makes a
// virtual or out-of-line call: the engine's calls into the policy and the
// policy's calls back (RouteState::attempt receives the concrete policy)
// are all visible to the compiler.
//
// The engine is const with respect to the network (DESIGN.md Sec. 6): every
// side effect lands in the caller-owned LookupMetrics sink or the
// caller-owned trace vector, so concurrent lookups (one sink per thread)
// remain data-race-free.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "dht/latency.hpp"
#include "dht/metrics.hpp"
#include "dht/types.hpp"
#include "util/contracts.hpp"

namespace cycloid::dht {

/// Reusable per-lookup buffers of one in-flight lane. The engine clears
/// the buffers on every refill but keeps their capacity, so a warmed-up
/// batch performs zero heap allocations per lookup. Engine working state,
/// never shared and never read back.
struct RouterScratch {
  /// Distinct departed nodes contacted (RouteState::attempt dedup).
  std::vector<NodeHandle> dead_seen;
  /// Nodes the route passed through (policies with a track_visited hook).
  std::vector<NodeHandle> visited;

  void clear() noexcept {
    dead_seen.clear();
    visited.clear();
  }
};

/// Per-call knobs of the routing engine.
struct RouterOptions {
  /// Maximum message forwardings before the engine aborts the lookup with
  /// LookupStatus::kHopLimit. 0 selects the policy's default cap
  /// (8 * bits of the overlay's identifier space).
  int max_hops = 0;
  /// When non-null, every counted hop is appended as a TraceStep and its
  /// link latency (torus_latency, the shared plane) is added to
  /// LookupResult::route_latency. The steps of successive lookups follow
  /// one another, so tracing requires a single in-flight lane (width 1 or
  /// a one-lookup batch). Untraced lookups never price a link, so they pay
  /// nothing for it.
  std::vector<TraceStep>* trace = nullptr;
};

/// A step policy's verdict for the current position.
struct HopDecision {
  enum class Kind { kForward, kDeliver, kFail };

  Kind kind = Kind::kDeliver;
  NodeHandle next = kNoNode;   ///< forwarding target (kForward only)
  std::size_t phase = 0;       ///< phase slot to charge the hop to
  const char* link = "";       ///< static label for route traces
  /// With kForward: the hop completes the lookup — the engine counts it and
  /// terminates delivered WITHOUT asking the receiving node. Ring DHTs use
  /// this for the "key in (cur, successor]" move: the sender's view decides,
  /// so a stale predecessor pointer at the receiver cannot bounce the key.
  bool final_hop = false;

  static HopDecision forward(NodeHandle next, std::size_t phase,
                             const char* link = "") {
    return HopDecision{Kind::kForward, next, phase, link, false};
  }
  /// Forward one last time, then terminate delivered at `next`.
  static HopDecision forward_deliver(NodeHandle next, std::size_t phase,
                                     const char* link = "") {
    return HopDecision{Kind::kForward, next, phase, link, true};
  }
  /// The current node is (by its local view) the key's owner.
  static HopDecision deliver() { return HopDecision{}; }
  /// Routing is stuck; terminate with LookupStatus::kFailed.
  static HopDecision fail() {
    return HopDecision{Kind::kFail, kNoNode, 0, ""};
  }
};

/// fallback_budget() value meaning "no step budget".
inline constexpr int kNoFallbackBudget = -1;

/// A policy that answers the liveness probe behind RouteState::attempt and
/// RouteState::resolve_chain. Only policies that call those need it.
template <typename P>
concept ProbesLiveness = requires(const P& policy, NodeHandle node) {
  { policy.alive(node) } -> std::convertible_to<bool>;
};

/// The engine-owned view a policy routes against. Accounting members are
/// const-callable (the underlying bookkeeping is engine state, not network
/// state) so `next_hop(const RouteState&)` stays an honest signature.
class RouteState {
 public:
  /// Node currently holding the request.
  NodeHandle current() const noexcept { return current_; }
  /// Dense registry slot of current(), resolved once per hop by the engine
  /// via the policy's slot_of (kNoSlot for slot-less policies). Overlay
  /// policies use it to reach the current node's arena state without a
  /// hash probe: net_.node_at(state.current_slot()).
  std::size_t current_slot() const noexcept { return current_slot_; }
  /// Message forwardings so far.
  int hops() const noexcept { return result_->hops; }
  /// Timeouts charged so far.
  int timeouts() const noexcept { return result_->timeouts; }
  /// True once the step budget is exhausted: the policy must restrict
  /// itself to its provably-terminating fallback move (leaf-set descent).
  bool fallback() const noexcept { return fallback_; }
  /// The caller-owned sink (for overlay-specific learnings).
  LookupMetrics& sink() const noexcept { return *sink_; }

  /// Contact attempt against a possibly-departed entry, probed through
  /// `policy.alive` (the calling policy passes itself). Returns true when
  /// the node is live; otherwise charges one timeout for the first attempt
  /// against each distinct departed node (paper Sec. 4.3: "the number of
  /// timeouts experienced by a lookup is equal to the number of departed
  /// nodes encountered") and returns false. kNoNode is a silent miss.
  template <ProbesLiveness Policy>
  bool attempt(const Policy& policy, NodeHandle node) const {
    if (node == kNoNode) return false;
    if (policy.alive(node)) return true;
    std::vector<NodeHandle>& dead = scratch_->dead_seen;
    if (std::find(dead.begin(), dead.end(), node) == dead.end()) {
      dead.push_back(node);
      ++result_->timeouts;
    }
    return false;
  }

  /// True when the route already passed through `node` (only meaningful
  /// for policies with a track_visited hook).
  bool was_visited(NodeHandle node) const {
    const std::vector<NodeHandle>& visited = scratch_->visited;
    return std::find(visited.begin(), visited.end(), node) != visited.end();
  }

  /// Walk a primary-then-backups pointer chain owned by `owner`, consulting
  /// the sink's learned repairs first: a previously learned promotion skips
  /// straight past the entries it already found dead, a node marked broken
  /// resolves to kNoNode immediately. Live entries found behind dead ones
  /// are recorded with learn_link (repair-on-timeout); exhausting the chain
  /// records mark_broken. Each entry is probed with attempt(policy, ·).
  /// Returns the first live entry or kNoNode.
  template <ProbesLiveness Policy>
  NodeHandle resolve_chain(const Policy& policy, NodeHandle owner,
                           NodeHandle primary,
                           const std::vector<NodeHandle>& backups,
                           bool locally_broken) const {
    if (locally_broken || sink_->is_broken(owner)) return kNoNode;
    std::size_t start = 0;
    if (const auto learned = sink_->learned_link(owner)) {
      const auto it = std::find(backups.begin(), backups.end(), *learned);
      if (it != backups.end()) {
        start = static_cast<std::size_t>(it - backups.begin()) + 1;
      }
    }
    const auto entry = [&](std::size_t i) {
      return i == 0 ? primary : backups[i - 1];
    };
    for (std::size_t i = start; i <= backups.size(); ++i) {
      if (!attempt(policy, entry(i))) continue;
      if (i > 0) sink_->learn_link(owner, entry(i));  // repair-on-timeout
      return entry(i);
    }
    sink_->mark_broken(owner);
    return kNoNode;
  }

 private:
  friend class Router;

  /// Default-constructed states are unbound lane slots of route_batch;
  /// bind() targets them at a lookup.
  RouteState() = default;

  /// Re-target this state at one lookup: wire the sink/result/scratch
  /// pointers and reset all per-lookup position fields. The batch engine
  /// re-binds the same RouteState object once per lane refill.
  void bind(LookupMetrics& sink, LookupResult& result,
            RouterScratch& scratch) noexcept {
    sink_ = &sink;
    result_ = &result;
    scratch_ = &scratch;
    current_ = kNoNode;
    current_slot_ = kNoSlot;
    fallback_ = false;
    steps_ = 0;
    timeouts_at_last_hop_ = 0;
  }

  LookupMetrics* sink_ = nullptr;
  LookupResult* result_ = nullptr;
  /// Engine buffers (dead-seen dedup — small, linear scan beats hashing —
  /// and visited tracking): the lane's slice of a BatchScratch.
  RouterScratch* scratch_ = nullptr;
  NodeHandle current_ = kNoNode;
  std::size_t current_slot_ = kNoSlot;
  bool fallback_ = false;
  int steps_ = 0;
  int timeouts_at_last_hop_ = 0;
};

/// The per-overlay half of a lookup: pure routing logic, no accounting.
/// Policies are cheap per-lookup objects (built by value in each batch lane
/// by the overlay's policy factory), so they may carry per-lookup state
/// such as Koorde's imaginary-node path or Viceroy's phase machine.
///
/// Required hooks:
///   HopDecision next_hop(const RouteState&)
///       Decide the next hop from `state.current()`. Logically const with
///       respect to the network; per-lookup policy state may mutate.
///   std::size_t slot_of(NodeHandle) const
///       Dense registry slot of a node, kNoSlot when unknown. Overlay
///       policies forward to DhtNetwork::slot_of; the engine resolves each
///       forwarding target's slot ONCE and carries it
///       (RouteState::current_slot), so the policy reaches the current
///       node's state by array index (ArenaNetwork::node_at).
///   int default_max_hops() const
///       Hop cap when RouterOptions::max_hops is 0. Convention: 8 * bits
///       of the overlay's identifier space.
/// A policy that calls RouteState::attempt or resolve_chain also provides
/// `bool alive(NodeHandle) const` (ProbesLiveness).
///
/// Optional hooks, detected at compile time (absent means the default):
///   int fallback_budget() const
///       Steps before the engine flips RouteState::fallback() and counts a
///       guard fallback in the sink. Default kNoFallbackBudget: no flip.
///   bool track_visited() const
///       Whether the engine records visited nodes for
///       RouteState::was_visited() (only overlays whose moves may revisit).
///       Default false.
///   void prefetch(std::size_t slot) const
///   void prefetch_tables(std::size_t slot) const
///       Batch-mode prefetch hints for the position `slot`. prefetch runs
///       the moment `slot` becomes a lane's position (the hop there was
///       committed, or the lookup starts there): address arithmetic only,
///       the record is not cached yet, so it prefetches the arena record
///       (ArenaNetwork::prefetch_node). prefetch_tables runs one lane
///       rotation later, one rotation before next_hop runs at `slot`, and
///       may dereference the record to prefetch what next_hop will walk.
///       Both prefetch only — no read the result could depend on, no write
///       anywhere — so routing output is bit-identical whether or not they
///       run. An overlay provides a hint only where it measurably pays
///       (DESIGN.md Sec. 14): Chord, Koorde and Pastry take both and warm
///       the out-of-line tables next_hop walks, Cycloid both for its record
///       and the position-table entries of its candidates; CAN takes
///       prefetch_tables for its two blocks; Viceroy's hop reads only its
///       record, and the lanes alone hide that miss. Default: no hint.
template <typename P>
concept StepPolicy =
    std::move_constructible<P> &&
    requires(P& policy, const P& view, const RouteState& state,
             NodeHandle node) {
      { policy.next_hop(state) } -> std::same_as<HopDecision>;
      { view.slot_of(node) } -> std::convertible_to<std::size_t>;
      { view.default_max_hops() } -> std::convertible_to<int>;
    };

/// Reusable per-lane engine buffers for Router::route_batch: one
/// RouterScratch per in-flight lane. A caller that batches repeatedly
/// passes the same object every time so the lane buffers warm once and the
/// hot path allocates nothing. One BatchScratch per thread — never shared.
struct BatchScratch {
  std::vector<RouterScratch> lanes;
};

/// The hop loop. `route_batch` drives each lookup's policy from its source
/// until it delivers, fails, or exceeds the hop cap, accounting every hop
/// into `sink`, with up to kMaxBatchWidth lookups in flight at once
/// (software pipelining): each lane owns a RouteState and a RouterScratch
/// slice, lanes advance round-robin, and the policy's prefetch hints
/// overlap one lane's DRAM misses with the other lanes' compute. At width 1
/// a lane runs each lookup to completion before the next starts — the
/// sequential schedule. Lanes are fully independent and the engine is
/// const, so per-lookup results and sink totals are bit-identical to the
/// width-1 schedule at every width (the notes — the only order-sensitive
/// sink writes — are issued in lookup-index order after the lanes drain).
class Router {
 public:
  /// Hard cap on in-flight lanes. Eight lanes already saturate the MLP of
  /// current cores; the cap bounds the engine's stack footprint and lets
  /// the lane array live in a fixed-size std::array (no per-batch heap).
  static constexpr int kMaxBatchWidth = 16;

  /// The step policy type a route_batch factory builds.
  template <typename MakePolicy>
  using PolicyOf =
      std::decay_t<std::invoke_result_t<MakePolicy&, NodeHandle, KeyHash>>;

  /// Route `count` lookups (froms[i] toward keys[i]) with up to `width`
  /// in flight, writing per-lookup outcomes into results[0..count) and
  /// accounting into `sink` exactly as routing them one at a time would.
  /// `make_policy(from, key)` builds the overlay's per-lookup step policy
  /// by value; it must model StepPolicy, and the hop loop is compiled for
  /// its concrete type. Widths outside [1, kMaxBatchWidth] are clamped.
  /// Each lane routes out of its own slice of `batch`.
  template <typename MakePolicy>
    requires StepPolicy<PolicyOf<MakePolicy>>
  static void route_batch(const NodeHandle* froms, const KeyHash* keys,
                          std::size_t count, int width, LookupMetrics& sink,
                          LookupResult* results, BatchScratch& batch,
                          const RouterOptions& options,
                          MakePolicy&& make_policy) {
    using Policy = PolicyOf<MakePolicy>;
    if (count == 0) return;
    const std::size_t lane_count = std::min<std::size_t>(
        static_cast<std::size_t>(std::clamp(width, 1, kMaxBatchWidth)), count);
    // Lanes share options.trace, so interleaved lanes would mix their
    // steps into one vector.
    CYCLOID_EXPECTS(options.trace == nullptr || lane_count == 1);
    if (batch.lanes.size() < lane_count) batch.lanes.resize(lane_count);

    // One lane = one in-flight lookup. A lane makes two visits per hop: a
    // step visit (next_hop + commit + stage-1 hint for the position it
    // moves to) and, one rotation later, a prefetch_tables visit (stage-2
    // hint for that position, its record now presumed cached). Everything
    // a step reads was prefetched one or two rotations earlier, while the
    // other lanes were doing their own work. A policy without
    // prefetch_tables makes one visit per hop: its lanes never owe the
    // second one.
    struct Lane {
      std::optional<Policy> policy;
      RouteState state;
      int max_hops = 0;
      int budget = 0;
      bool tables_due = false;  // next visit is the prefetch_tables hint
    };
    std::array<Lane, kMaxBatchWidth> lanes;

    std::size_t next = 0;       // next batch index to start
    std::size_t in_flight = 0;  // lanes currently holding a lookup

    const auto refill = [&](std::size_t l) {
      const std::size_t i = next++;
      Lane& lane = lanes[l];
      RouterScratch& scratch = batch.lanes[l];
      scratch.clear();
      results[i] = LookupResult{};
      lane.policy.emplace(make_policy(froms[i], keys[i]));
      Policy& policy = *lane.policy;
      lane.state.bind(sink, results[i], scratch);
      lane.state.current_ = froms[i];
      lane.state.current_slot_ = policy.slot_of(froms[i]);
      if (tracks_visited(policy)) scratch.visited.push_back(froms[i]);
      lane.max_hops =
          options.max_hops > 0 ? options.max_hops : policy.default_max_hops();
      CYCLOID_EXPECTS(lane.max_hops > 0);
      lane.budget = fallback_budget_of(policy);
      prefetch(policy, lane.state.current_slot_);
      lane.tables_due = has_tables_hint<Policy>;
      ++in_flight;
    };

    for (std::size_t l = 0; l < lane_count; ++l) refill(l);

    while (in_flight > 0) {
      for (std::size_t l = 0; l < lane_count; ++l) {
        Lane& lane = lanes[l];
        if (!lane.policy.has_value()) {
          if (next < count) refill(l);
          continue;
        }
        Policy& policy = *lane.policy;
        if (lane.tables_due) {
          prefetch_tables(policy, lane.state.current_slot_);
          lane.tables_due = false;
          continue;
        }
        if (step_once(lane.state, policy, sink, options, lane.max_hops,
                      lane.budget)) {
          lane.state.result_->destination = lane.state.current_;
          lane.policy.reset();
          --in_flight;
          if (next < count) refill(l);
        } else {
          prefetch(policy, lane.state.current_slot_);
          lane.tables_due = has_tables_hint<Policy>;
        }
      }
    }

    // Note the finished lookups in batch-index order: note() accumulates a
    // double (route_latency), so a fixed order keeps totals bit-identical
    // to the sequential loop at every width. All other sink writes during
    // routing are commutative integer counters.
    for (std::size_t i = 0; i < count; ++i) sink.note(results[i]);
  }

 private:
  // The optional hooks (see StepPolicy): the policy's answer when it has
  // the hook, else the default.
  template <typename P>
  static int fallback_budget_of(const P& policy) {
    if constexpr (requires { policy.fallback_budget(); }) {
      return policy.fallback_budget();
    } else {
      return kNoFallbackBudget;
    }
  }
  template <typename P>
  static bool tracks_visited(const P& policy) {
    if constexpr (requires { policy.track_visited(); }) {
      return policy.track_visited();
    } else {
      return false;
    }
  }
  template <typename P>
  static void prefetch(const P& policy, std::size_t slot) {
    if constexpr (requires { policy.prefetch(slot); }) policy.prefetch(slot);
  }
  template <typename P>
  static constexpr bool has_tables_hint =
      requires(const P& policy, std::size_t slot) {
        policy.prefetch_tables(slot);
      };
  template <typename P>
  static void prefetch_tables(const P& policy, std::size_t slot) {
    if constexpr (has_tables_hint<P>) policy.prefetch_tables(slot);
  }

  /// One iteration of the hop loop: a lane's step visit. Returns true when
  /// the lookup terminated (result status/success already set; destination
  /// is the caller's to fill from state.current_).
  template <typename P>
  static bool step_once(RouteState& state, P& policy, LookupMetrics& sink,
                        const RouterOptions& options, int max_hops,
                        int budget) {
    LookupResult& result = *state.result_;
    // Step-budget guard: beyond the budget the policy is restricted to its
    // provably-terminating fallback move; the flip is itself an event worth
    // counting (expected ~0 — tests assert the phase algorithms converge).
    if (budget != kNoFallbackBudget && state.steps_++ > budget &&
        !state.fallback_) {
      state.fallback_ = true;
      ++sink.guard_fallbacks;
    }

    const HopDecision decision = policy.next_hop(state);
    if (decision.kind == HopDecision::Kind::kDeliver) return true;
    if (decision.kind == HopDecision::Kind::kFail) {
      result.success = false;
      result.status = LookupStatus::kFailed;
      return true;
    }

    CYCLOID_ASSERT(decision.next != kNoNode);
    // Universal hop cap: a policy that keeps forwarding (cyclic routing
    // tables, adversarial state) terminates with an explicit status
    // instead of hanging the simulation.
    if (result.hops >= max_hops) {
      result.success = false;
      result.status = LookupStatus::kHopLimit;
      return true;
    }

    result.count_hop(decision.phase);
    if (options.trace != nullptr) {
      const double latency = torus_latency(state.current_, decision.next);
      result.route_latency += latency;
      options.trace->push_back(TraceStep{
          decision.next, decision.phase, decision.link,
          result.timeouts - state.timeouts_at_last_hop_, latency});
    }
    state.timeouts_at_last_hop_ = result.timeouts;
    state.current_ = decision.next;
    // Resolve the receiver's registry slot once: as the next hop's
    // current_slot it lets the policy reach the node's state with no hash
    // probe of its own.
    state.current_slot_ = policy.slot_of(decision.next);
    if (tracks_visited(policy)) {
      state.scratch_->visited.push_back(decision.next);
    }
    // Sender-decided delivery: the hop completes the lookup without
    // consulting the receiving node's (possibly stale) local view.
    return decision.final_hop;
  }
};

}  // namespace cycloid::dht
