// The shared routing engine: one hop loop for every overlay.
//
// The simulator is message-level — a lookup is a sequence of hop decisions —
// and every overlay used to re-implement the same `while (true)` loop with
// its own copy of dead-contact timeout accounting, phase bookkeeping, and
// loop guards. dht::Router owns that loop end to end, and
// Router::route_batch is its only entry: DhtNetwork::route is a one-lookup
// batch at width 1. An overlay contributes a *step policy*: given the
// current position, decide the next hop (forward / deliver / fail) with a
// phase tag. The engine centrally handles everything the overlays used to
// duplicate:
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
//     lanes, each hop staged by two prefetch hints (StepPolicy::prefetch,
//     then StepPolicy::prefetch_tables one rotation later) so one lane's
//     DRAM misses overlap the other lanes' compute (DESIGN.md Sec. 14).
//
// The engine is const with respect to the network (DESIGN.md Sec. 6): every
// side effect lands in the caller-owned LookupMetrics sink or the
// caller-owned trace vector, so concurrent lookups (one sink per thread)
// remain data-race-free.
#pragma once

#include <algorithm>
#include <array>
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
  /// Nodes the route passed through (policies with track_visited()).
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
  /// link latency is added to LookupResult::route_latency. The steps of
  /// successive lookups follow one another, so tracing requires a single
  /// in-flight lane (width 1 or a one-lookup batch). Untraced lookups
  /// never evaluate link_latency, so they pay nothing for it.
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

class RouteState;

/// The per-overlay half of a lookup: pure routing logic, no accounting.
/// Policies are cheap per-lookup objects (built by value in each batch lane
/// by the overlay's policy factory), so they may carry per-lookup state
/// such as Koorde's imaginary-node path or Viceroy's phase machine.
class StepPolicy {
 public:
  /// fallback_budget() value meaning "no step budget".
  static constexpr int kNoFallbackBudget = -1;

  virtual ~StepPolicy() = default;

  /// Decide the next hop from `state.current()`. Must be logically const
  /// with respect to the network; per-lookup policy state may mutate.
  virtual HopDecision next_hop(const RouteState& state) = 0;

  /// Liveness probe behind RouteState::attempt().
  virtual bool alive(NodeHandle node) const = 0;

  /// Dense registry slot of `node`, kNoSlot when unknown. Overlay policies
  /// forward to DhtNetwork::slot_of; the engine resolves each forwarding
  /// target's slot ONCE and carries it (RouteState::current_slot), so the
  /// policy reaches the current node's state by array index
  /// (ArenaNetwork::node_at). The default keeps slot-less synthetic
  /// policies (engine unit tests) working on handles alone.
  virtual std::size_t slot_of(NodeHandle node) const {
    (void)node;
    return kNoSlot;
  }

  /// Default hop cap when RouterOptions::max_hops is 0. Convention:
  /// 8 * bits of the overlay's identifier space.
  virtual int default_max_hops() const = 0;

  /// Steps before the engine flips RouteState::fallback() (and counts a
  /// guard fallback in the sink). kNoFallbackBudget disables the flip.
  virtual int fallback_budget() const { return kNoFallbackBudget; }

  /// Whether the engine should record visited nodes for
  /// RouteState::was_visited() (only overlays whose moves may revisit).
  virtual bool track_visited() const { return false; }

  /// Simulated one-hop latency, accumulated into route traces and
  /// LookupResult::route_latency. Defaults to the shared proximity plane
  /// (dht/latency.hpp), so every overlay prices links identically; override
  /// only to model a different cost function (engine unit tests do).
  virtual double link_latency(NodeHandle a, NodeHandle b) const {
    return torus_latency(a, b);
  }

  // Batch-mode prefetch hints (Router::route_batch) -----------------------
  // Both hooks are pure hints: they must issue prefetches only (no reads
  // that the result could depend on, no writes anywhere), so routing output
  // is bit-identical whether or not they run. The engine calls each once
  // per position, one lane rotation apart:
  //
  //   prefetch(slot)         the moment `slot` becomes a lane's next
  //                          position — address arithmetic only (the node
  //                          record is NOT yet cached), so overlays prefetch
  //                          the arena record lines (ArenaNetwork::
  //                          prefetch_node) and nothing that requires
  //                          dereferencing them;
  //   prefetch_tables(slot)  one rotation later, when the record is
  //                          presumed cached — overlays with out-of-line
  //                          routing state (Chord fingers, Koorde chains,
  //                          Pastry leaf sets and row headers, CAN's
  //                          routing table and zone list, the slot-table
  //                          entries of Cycloid's candidates) dereference
  //                          the record and prefetch those lines.
  //
  // An overlay overrides a hook only where it measurably pays (DESIGN.md
  // Sec. 14). Viceroy's hop reads only its own record (Sec. 17), and the
  // lanes alone hide that miss: a stage-1 hint measured no gain, so it
  // overrides neither. CAN's hop reads its record and two blocks behind it
  // (Sec. 18); the pair measured 1.7x at W = 8 and 2^17, so it takes both.
  // Cycloid's record holds the whole node, and its hop reads one
  // position-table entry per candidate (Sec. 19): stage 2 alone measured
  // 1.13x-1.21x at W = 8 and 2^17, and stage 1 added nothing, so it takes
  // stage 2 only.

  /// Stage-1 hint: `slot` is about to become a lane's current position.
  virtual void prefetch(std::size_t slot) const { (void)slot; }

  /// Stage-2 hint: the record at `slot` should be cached by now; prefetch
  /// the out-of-line state next_hop will read.
  virtual void prefetch_tables(std::size_t slot) const { (void)slot; }
};

/// The engine-owned view a policy routes against. Accounting members are
/// const-callable (the underlying bookkeeping is engine state, not network
/// state) so `next_hop(const RouteState&)` stays an honest signature.
class RouteState {
 public:
  /// Node currently holding the request.
  NodeHandle current() const noexcept { return current_; }
  /// Dense registry slot of current(), resolved once per hop by the engine
  /// via StepPolicy::slot_of (kNoSlot for slot-less policies). Overlay
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

  /// Contact attempt against a possibly-departed entry. Returns true when
  /// the node is live; otherwise charges one timeout for the first attempt
  /// against each distinct departed node (paper Sec. 4.3: "the number of
  /// timeouts experienced by a lookup is equal to the number of departed
  /// nodes encountered") and returns false. kNoNode is a silent miss.
  bool attempt(NodeHandle node) const;

  /// True when the route already passed through `node` (only meaningful
  /// for policies with track_visited()).
  bool was_visited(NodeHandle node) const;

  /// Walk a primary-then-backups pointer chain owned by `owner`, consulting
  /// the sink's learned repairs first: a previously learned promotion skips
  /// straight past the entries it already found dead, a node marked broken
  /// resolves to kNoNode immediately. Live entries found behind dead ones
  /// are recorded with learn_link (repair-on-timeout); exhausting the chain
  /// records mark_broken. Returns the first live entry or kNoNode.
  NodeHandle resolve_chain(NodeHandle owner, NodeHandle primary,
                           const std::vector<NodeHandle>& backups,
                           bool locally_broken) const;

 private:
  friend class Router;

  /// Default-constructed states are unbound lane slots of route_batch;
  /// bind() targets them at a lookup.
  RouteState() = default;

  /// Re-target this state at one lookup: wire the policy/sink/result/
  /// scratch pointers and reset all per-lookup position fields. The batch
  /// engine re-binds the same RouteState object once per lane refill.
  void bind(const StepPolicy& policy, LookupMetrics& sink,
            LookupResult& result, RouterScratch& scratch) noexcept {
    policy_ = &policy;
    sink_ = &sink;
    result_ = &result;
    scratch_ = &scratch;
    current_ = kNoNode;
    current_slot_ = kNoSlot;
    fallback_ = false;
    steps_ = 0;
    timeouts_at_last_hop_ = 0;
  }

  const StepPolicy* policy_ = nullptr;
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

  /// Route `count` lookups (froms[i] toward keys[i]) with up to `width`
  /// in flight, writing per-lookup outcomes into results[0..count) and
  /// accounting into `sink` exactly as routing them one at a time would.
  /// `make_policy(from, key)` builds the overlay's per-lookup step policy
  /// by value; the concrete policy type lets the compiler devirtualize the
  /// hop loop. Widths outside [1, kMaxBatchWidth] are clamped. Each lane
  /// routes out of its own slice of `batch`.
  template <typename MakePolicy>
  static void route_batch(const NodeHandle* froms, const KeyHash* keys,
                          std::size_t count, int width, LookupMetrics& sink,
                          LookupResult* results, BatchScratch& batch,
                          const RouterOptions& options,
                          MakePolicy&& make_policy) {
    using Policy =
        std::decay_t<std::invoke_result_t<MakePolicy&, NodeHandle, KeyHash>>;
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
    // other lanes were doing their own work.
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
      lane.state.bind(policy, sink, results[i], scratch);
      lane.state.current_ = froms[i];
      lane.state.current_slot_ = policy.slot_of(froms[i]);
      if (policy.track_visited()) scratch.visited.push_back(froms[i]);
      lane.max_hops =
          options.max_hops > 0 ? options.max_hops : policy.default_max_hops();
      CYCLOID_EXPECTS(lane.max_hops > 0);
      lane.budget = policy.fallback_budget();
      policy.prefetch(lane.state.current_slot_);
      lane.tables_due = true;
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
          policy.prefetch_tables(lane.state.current_slot_);
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
          policy.prefetch(lane.state.current_slot_);
          lane.tables_due = true;
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
  /// One iteration of the hop loop: a lane's step visit. Returns true when
  /// the lookup terminated (result status/success already set; destination
  /// is the caller's to fill from state.current_). Templated on the
  /// concrete policy type so each instantiation devirtualizes the per-hop
  /// calls.
  template <typename P>
  static bool step_once(RouteState& state, P& policy, LookupMetrics& sink,
                        const RouterOptions& options, int max_hops,
                        int budget) {
    LookupResult& result = *state.result_;
    // Step-budget guard: beyond the budget the policy is restricted to its
    // provably-terminating fallback move; the flip is itself an event worth
    // counting (expected ~0 — tests assert the phase algorithms converge).
    if (budget != StepPolicy::kNoFallbackBudget && state.steps_++ > budget &&
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
      const double latency = policy.link_latency(state.current_, decision.next);
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
    if (policy.track_visited()) state.scratch_->visited.push_back(decision.next);
    // Sender-decided delivery: the hop completes the lookup without
    // consulting the receiving node's (possibly stale) local view.
    return decision.final_hop;
  }
};

}  // namespace cycloid::dht
