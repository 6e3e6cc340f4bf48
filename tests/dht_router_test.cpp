// Unit tests of the shared routing engine (dht::Router) against synthetic
// step policies over a tiny abstract universe — no overlay required. The
// overlay-parameterized engine invariants live in dht_conformance_test.cpp.
//
// The single-lookup tests route through Router::route_batch with count 1
// (route_one below), the way DhtNetwork::route does.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "dht/router.hpp"

namespace cycloid::dht {
namespace {

/// Base policy: every node is alive unless listed dead; forwards nowhere.
/// Slot-less: the engine carries kNoSlot as every position's slot.
class FakePolicy {
 public:
  HopDecision next_hop(const RouteState&) { return HopDecision::deliver(); }
  bool alive(NodeHandle node) const { return !dead_.contains(node); }
  std::size_t slot_of(NodeHandle) const { return kNoSlot; }
  int default_max_hops() const { return 16; }

  void kill(NodeHandle node) { dead_.insert(node); }

 private:
  std::set<NodeHandle> dead_;
};

/// Two of the optional hooks the engine detects.
template <typename P>
concept HasFallbackBudget = requires(const P& p) { p.fallback_budget(); };
template <typename P>
concept HasTrackVisited = requires(const P& p) { p.track_visited(); };

/// route_batch builds each lane's policy by value, so the single-lookup
/// tests hand it this forwarding view: the test's own policy object does
/// the routing and keeps whatever it recorded observable afterwards. The
/// optional hooks are forwarded only when the concrete policy has them, so
/// the engine sees exactly the hooks the test policy declares.
template <typename P>
class PolicyRef {
 public:
  explicit PolicyRef(P& policy) : policy_(&policy) {}
  HopDecision next_hop(const RouteState& state) {
    return policy_->next_hop(state);
  }
  std::size_t slot_of(NodeHandle node) const { return policy_->slot_of(node); }
  int default_max_hops() const { return policy_->default_max_hops(); }
  int fallback_budget() const
    requires HasFallbackBudget<P>
  {
    return policy_->fallback_budget();
  }
  bool track_visited() const
    requires HasTrackVisited<P>
  {
    return policy_->track_visited();
  }

 private:
  P* policy_;
};

/// One lookup from `from`: a one-lookup Router::route_batch at width 1.
template <typename P>
LookupResult route_one(P& policy, NodeHandle from, LookupMetrics& sink,
                       const RouterOptions& options = {}) {
  const KeyHash key = 0;
  LookupResult result;
  BatchScratch lanes;
  Router::route_batch(&from, &key, 1, 1, sink, &result, lanes, options,
                      [&](NodeHandle, KeyHash) { return PolicyRef(policy); });
  return result;
}

TEST(DhtRouterTest, DeliverAtSourceCountsNoHops) {
  FakePolicy policy;
  LookupMetrics sink;
  const LookupResult result = route_one(policy, 7, sink);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.status, LookupStatus::kDelivered);
  EXPECT_EQ(result.destination, 7u);
  EXPECT_EQ(result.hops, 0);
  EXPECT_EQ(sink.lookups, 1u);
  EXPECT_EQ(sink.hops, 0u);
}

// The hop-cap satellite: a deliberately cyclic routing table (1 <-> 2
// forever) must terminate with an explicit kHopLimit instead of hanging.
class CyclicPolicy : public FakePolicy {
 public:
  HopDecision next_hop(const RouteState& state) {
    return HopDecision::forward(state.current() == 1 ? 2 : 1, 0, "cycle");
  }
};

TEST(DhtRouterTest, CyclicRoutingTableTerminatesAtHopLimit) {
  CyclicPolicy policy;
  LookupMetrics sink;
  const LookupResult result = route_one(policy, 1, sink);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.status, LookupStatus::kHopLimit);
  EXPECT_EQ(result.hops, policy.default_max_hops());
  EXPECT_EQ(sink.failures, 1u);
}

TEST(DhtRouterTest, OptionsMaxHopsOverridesPolicyDefault) {
  CyclicPolicy policy;
  LookupMetrics sink;
  RouterOptions options;
  options.max_hops = 5;
  const LookupResult result = route_one(policy, 1, sink, options);
  EXPECT_EQ(result.status, LookupStatus::kHopLimit);
  EXPECT_EQ(result.hops, 5);
}

class FailingPolicy : public FakePolicy {
 public:
  HopDecision next_hop(const RouteState&) {
    return HopDecision::fail();
  }
};

TEST(DhtRouterTest, FailReportsStatusAndPosition) {
  FailingPolicy policy;
  LookupMetrics sink;
  const LookupResult result = route_one(policy, 3, sink);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.status, LookupStatus::kFailed);
  EXPECT_EQ(result.destination, 3u);  // where routing got stuck
  EXPECT_EQ(sink.failures, 1u);
}

// attempt() charges one timeout per *distinct* departed node, no matter how
// often the lookup retries the same dead contact.
class ProbingPolicy : public FakePolicy {
 public:
  HopDecision next_hop(const RouteState& state) {
    EXPECT_FALSE(state.attempt(*this, kNoNode));  // silent miss, no timeout
    EXPECT_FALSE(state.attempt(*this, 50));
    EXPECT_FALSE(state.attempt(*this, 50));  // repeat: no extra charge
    EXPECT_FALSE(state.attempt(*this, 51));
    EXPECT_TRUE(state.attempt(*this, 52));
    return HopDecision::deliver();
  }
};

TEST(DhtRouterTest, AttemptChargesOneTimeoutPerDistinctDeadNode) {
  ProbingPolicy policy;
  policy.kill(50);
  policy.kill(51);
  LookupMetrics sink;
  const LookupResult result = route_one(policy, 1, sink);
  EXPECT_EQ(result.timeouts, 2);
  EXPECT_EQ(sink.timeouts, 2u);
}

// resolve_chain(): walks primary-then-backups, records the promotion it
// learned, and consults the same sink's learnings on later lookups.
class ChainPolicy : public FakePolicy {
 public:
  HopDecision next_hop(const RouteState& state) {
    resolved = state.resolve_chain(*this, 10, 11, {12, 13}, locally_broken);
    return HopDecision::deliver();
  }
  NodeHandle resolved = kNoNode;
  bool locally_broken = false;
};

TEST(DhtRouterTest, ResolveChainPromotesFirstLiveBackupAndLearns) {
  ChainPolicy policy;
  policy.kill(11);
  policy.kill(12);
  LookupMetrics sink;
  route_one(policy, 1, sink);
  EXPECT_EQ(policy.resolved, 13u);
  EXPECT_EQ(sink.timeouts, 2u);  // 11 and 12
  ASSERT_TRUE(sink.learned_link(10).has_value());
  EXPECT_EQ(*sink.learned_link(10), 13u);

  // A later lookup through the same sink starts past the learned backup:
  // the dead primary and first backup cost nothing the second time.
  route_one(policy, 1, sink);
  EXPECT_EQ(policy.resolved, 13u);
  EXPECT_EQ(sink.timeouts, 2u);
}

TEST(DhtRouterTest, ResolveChainMarksBrokenWhenExhausted) {
  ChainPolicy policy;
  policy.kill(11);
  policy.kill(12);
  policy.kill(13);
  LookupMetrics sink;
  route_one(policy, 1, sink);
  EXPECT_EQ(policy.resolved, kNoNode);
  EXPECT_TRUE(sink.is_broken(10));
  EXPECT_EQ(sink.timeouts, 3u);

  // Consulted before re-probing: the second lookup charges nothing.
  route_one(policy, 1, sink);
  EXPECT_EQ(policy.resolved, kNoNode);
  EXPECT_EQ(sink.timeouts, 3u);
}

TEST(DhtRouterTest, ResolveChainHonoursLocallyBrokenFlag) {
  ChainPolicy policy;
  policy.locally_broken = true;
  LookupMetrics sink;
  route_one(policy, 1, sink);
  EXPECT_EQ(policy.resolved, kNoNode);
  EXPECT_EQ(sink.timeouts, 0u);  // short-circuits before any probe
}

// The step-budget guard: the engine flips fallback() after the policy's
// budget and counts the flip once in guard_fallbacks.
class BudgetPolicy : public FakePolicy {
 public:
  HopDecision next_hop(const RouteState& state) {
    if (state.fallback()) return HopDecision::deliver();
    steps_before_flip = state.hops();
    return HopDecision::forward(state.current() + 1, 0, "walk");
  }
  int fallback_budget() const { return 3; }
  int steps_before_flip = 0;
};

TEST(DhtRouterTest, FallbackBudgetFlipIsCountedOnce) {
  BudgetPolicy policy;
  LookupMetrics sink;
  const LookupResult result = route_one(policy, 1, sink);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(sink.guard_fallbacks, 1u);
  EXPECT_EQ(result.hops, policy.fallback_budget() + 1);
}

// forward_deliver: the hop is counted, then the lookup terminates without
// the policy being consulted at the receiving node (ring final-step
// semantics — the receiver's stale state must not bounce the key).
class FinalHopPolicy : public FakePolicy {
 public:
  HopDecision next_hop(const RouteState&) {
    ++calls;
    return HopDecision::forward_deliver(9, 1, "successor");
  }
  int calls = 0;
};

TEST(DhtRouterTest, ForwardDeliverSkipsTheReceiversView) {
  FinalHopPolicy policy;
  LookupMetrics sink;
  std::vector<TraceStep> trace;
  RouterOptions options;
  options.trace = &trace;
  const LookupResult result = route_one(policy, 1, sink, options);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.status, LookupStatus::kDelivered);
  EXPECT_EQ(result.destination, 9u);
  EXPECT_EQ(result.hops, 1);
  EXPECT_EQ(result.phase_hops[1], 1);
  EXPECT_EQ(policy.calls, 1);  // never asked at node 9
  // The one hop was received by node 9.
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].node, 9u);
  EXPECT_EQ(trace[0].phase, 1u);
}

// Tracing: one TraceStep per counted hop, carrying the phase tag, link
// label, per-hop timeout delta, and the link's latency on the shared plane.
class TracingPolicy : public FakePolicy {
 public:
  HopDecision next_hop(const RouteState& state) {
    if (state.current() == 1) {
      EXPECT_FALSE(state.attempt(*this, 40));  // dead: charged to hop one
      return HopDecision::forward(2, 0, "a");
    }
    if (state.current() == 2) return HopDecision::forward(3, 1, "b");
    return HopDecision::deliver();
  }
};

TEST(DhtRouterTest, TraceRecordsEveryHop) {
  TracingPolicy policy;
  policy.kill(40);
  LookupMetrics sink;
  std::vector<TraceStep> trace;
  RouterOptions options;
  options.trace = &trace;
  const LookupResult result = route_one(policy, 1, sink, options);
  ASSERT_EQ(trace.size(), static_cast<std::size_t>(result.hops));
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].node, 2u);
  EXPECT_EQ(trace[0].phase, 0u);
  EXPECT_STREQ(trace[0].link, "a");
  EXPECT_EQ(trace[0].timeouts_before, 1);
  EXPECT_DOUBLE_EQ(trace[0].latency, torus_latency(1, 2));
  EXPECT_EQ(trace[1].node, 3u);
  EXPECT_EQ(trace[1].phase, 1u);
  EXPECT_STREQ(trace[1].link, "b");
  EXPECT_EQ(trace[1].timeouts_before, 0);
  EXPECT_DOUBLE_EQ(trace[1].latency, torus_latency(2, 3));
  EXPECT_DOUBLE_EQ(result.route_latency,
                   torus_latency(1, 2) + torus_latency(2, 3));
}

// was_visited(): only tracked when the policy opts in; includes the source.
class VisitedPolicy : public FakePolicy {
 public:
  HopDecision next_hop(const RouteState& state) {
    EXPECT_TRUE(state.was_visited(1));
    if (state.current() == 1) {
      EXPECT_FALSE(state.was_visited(2));
      return HopDecision::forward(2, 0, "step");
    }
    EXPECT_TRUE(state.was_visited(2));
    return HopDecision::deliver();
  }
  bool track_visited() const { return true; }
};

TEST(DhtRouterTest, VisitedTrackingIncludesSourceAndEveryHop) {
  VisitedPolicy policy;
  LookupMetrics sink;
  const LookupResult result = route_one(policy, 1, sink);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.hops, 1);
}

// A step policy charging a phase slot outside phase_hops would silently
// corrupt adjacent LookupResult memory; the contract must trap it.
class OutOfRangePhasePolicy : public FakePolicy {
 public:
  HopDecision next_hop(const RouteState&) {
    return HopDecision::forward(2, kMaxPhases, "bad-phase");
  }
};

TEST(DhtRouterDeathTest, CountHopRejectsPhaseOutOfRange) {
  LookupResult result;
  EXPECT_DEATH(result.count_hop(kMaxPhases), "Precondition");
  // In-range phases are untouched by the contract.
  result.count_hop(kMaxPhases - 1);
  EXPECT_EQ(result.hops, 1);
  EXPECT_EQ(result.phase_hops[kMaxPhases - 1], 1);
}

TEST(DhtRouterDeathTest, EngineTrapsPolicyWithOutOfRangePhase) {
  OutOfRangePhasePolicy policy;
  LookupMetrics sink;
  EXPECT_DEATH(route_one(policy, 1, sink), "Precondition");
}

// The contract is a concept: every fake above models it, and so does the
// forwarding view over one, exposing only the optional hooks the concrete
// policy declares. A type without next_hop or slot_of does not model it,
// so route_batch refuses to compile for it. (Each overlay's policy asserts
// the same next to its definition.)
static_assert(StepPolicy<FakePolicy>);
static_assert(StepPolicy<CyclicPolicy>);
static_assert(StepPolicy<FailingPolicy>);
static_assert(StepPolicy<ProbingPolicy>);
static_assert(StepPolicy<ChainPolicy>);
static_assert(StepPolicy<BudgetPolicy>);
static_assert(StepPolicy<FinalHopPolicy>);
static_assert(StepPolicy<TracingPolicy>);
static_assert(StepPolicy<VisitedPolicy>);
static_assert(StepPolicy<OutOfRangePhasePolicy>);
static_assert(StepPolicy<PolicyRef<FakePolicy>>);
static_assert(StepPolicy<PolicyRef<BudgetPolicy>>);
static_assert(HasFallbackBudget<PolicyRef<BudgetPolicy>>);
static_assert(!HasFallbackBudget<PolicyRef<FakePolicy>>);
static_assert(HasTrackVisited<PolicyRef<VisitedPolicy>>);
static_assert(!HasTrackVisited<PolicyRef<FakePolicy>>);

struct NoNextHop {
  std::size_t slot_of(NodeHandle) const { return kNoSlot; }
  int default_max_hops() const { return 16; }
};
struct NoSlotOf {
  HopDecision next_hop(const RouteState&) { return HopDecision::deliver(); }
  int default_max_hops() const { return 16; }
};
static_assert(!StepPolicy<NoNextHop>);
static_assert(!StepPolicy<NoSlotOf>);

// ---------------------------------------------------------------------------
// route_batch lane mechanics (DESIGN.md §14), against synthetic policies.
// The overlay-level equivalence (batch ≡ sequential at every width) lives in
// dht_conformance_test.cpp; these tests pin the engine's edge cases: batches
// smaller than the lane width, lanes that finish on their first visit and
// must refill, width clamping, and the in-order note contract.
// ---------------------------------------------------------------------------

TEST(DhtRouterBatchTest, BatchSmallerThanWidthDeliversEveryLookup) {
  // 3 lookups, 8 lanes: most lanes never fill; none may double-note.
  const NodeHandle froms[] = {4, 5, 6};
  const KeyHash keys[] = {0, 0, 0};
  LookupMetrics sink;
  LookupResult results[3];
  BatchScratch lanes;
  Router::route_batch(froms, keys, 3, /*width=*/8, sink, results, lanes,
                      RouterOptions{},
                      [](NodeHandle, KeyHash) { return FakePolicy(); });
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(results[i].success);
    EXPECT_EQ(results[i].destination, froms[i]);  // delivered at source
    EXPECT_EQ(results[i].hops, 0);
  }
  EXPECT_EQ(sink.lookups, 3u);
  EXPECT_EQ(sink.hops, 0u);
}

TEST(DhtRouterBatchTest, ZeroCountBatchIsANoOp) {
  LookupMetrics sink;
  BatchScratch lanes;
  Router::route_batch(nullptr, nullptr, 0, /*width=*/4, sink, nullptr, lanes,
                      RouterOptions{},
                      [](NodeHandle, KeyHash) { return FakePolicy(); });
  EXPECT_EQ(sink.lookups, 0u);
}

TEST(DhtRouterBatchTest, InstantFailuresRefillLanesUntilTheBatchDrains) {
  // Every lookup fails on its first policy visit, so each lane refills
  // once per round-robin turn — 13 lookups through 4 lanes.
  constexpr std::size_t kCount = 13;
  std::vector<NodeHandle> froms(kCount);
  std::vector<KeyHash> keys(kCount, 0);
  for (std::size_t i = 0; i < kCount; ++i) froms[i] = 100 + i;
  LookupMetrics sink;
  std::vector<LookupResult> results(kCount);
  BatchScratch lanes;
  Router::route_batch(froms.data(), keys.data(), kCount, /*width=*/4, sink,
                      results.data(), lanes, RouterOptions{},
                      [](NodeHandle, KeyHash) { return FailingPolicy(); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_FALSE(results[i].success);
    EXPECT_EQ(results[i].status, LookupStatus::kFailed);
    EXPECT_EQ(results[i].destination, froms[i]);  // stuck where it started
  }
  EXPECT_EQ(sink.lookups, kCount);
  EXPECT_EQ(sink.failures, kCount);
}

TEST(DhtRouterBatchTest, HopCapAppliesPerLaneNotPerBatch) {
  // Cyclic lookups never finish on their own; every lane must hit the hop
  // cap independently and then refill.
  constexpr std::size_t kCount = 6;
  const NodeHandle froms[kCount] = {1, 1, 1, 1, 1, 1};
  const KeyHash keys[kCount] = {};
  LookupMetrics sink;
  LookupResult results[kCount];
  BatchScratch lanes;
  Router::route_batch(froms, keys, kCount, /*width=*/4, sink, results, lanes,
                      RouterOptions{},
                      [](NodeHandle, KeyHash) { return CyclicPolicy(); });
  const int cap = CyclicPolicy().default_max_hops();
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(results[i].status, LookupStatus::kHopLimit);
    EXPECT_EQ(results[i].hops, cap);
  }
  EXPECT_EQ(sink.hops, kCount * static_cast<std::uint64_t>(cap));
  EXPECT_EQ(sink.failures, kCount);
}

/// Delivers immediately for even keys, cycles to the hop cap for odd ones:
/// lanes finish at wildly different times, exercising refill interleaving.
class KeyedPolicy : public FakePolicy {
 public:
  explicit KeyedPolicy(KeyHash key) : cyclic_(key % 2 != 0) {}
  HopDecision next_hop(const RouteState& state) {
    if (!cyclic_) return HopDecision::deliver();
    return HopDecision::forward(state.current() == 1 ? 2 : 1, 0, "cycle");
  }

 private:
  bool cyclic_;
};

TEST(DhtRouterBatchTest, MixedLifetimeLanesKeepResultsInInputOrder) {
  constexpr std::size_t kCount = 11;
  std::vector<NodeHandle> froms(kCount, 1);
  std::vector<KeyHash> keys(kCount);
  for (std::size_t i = 0; i < kCount; ++i) keys[i] = i;
  LookupMetrics sink;
  std::vector<LookupResult> results(kCount);
  BatchScratch lanes;
  Router::route_batch(froms.data(), keys.data(), kCount, /*width=*/3, sink,
                      results.data(), lanes, RouterOptions{},
                      [](NodeHandle, KeyHash key) { return KeyedPolicy(key); });
  const int cap = FakePolicy().default_max_hops();
  for (std::size_t i = 0; i < kCount; ++i) {
    SCOPED_TRACE("lookup " + std::to_string(i));
    if (i % 2 == 0) {
      EXPECT_TRUE(results[i].success);
      EXPECT_EQ(results[i].hops, 0);
    } else {
      EXPECT_EQ(results[i].status, LookupStatus::kHopLimit);
      EXPECT_EQ(results[i].hops, cap);
    }
  }
  EXPECT_EQ(sink.lookups, kCount);
  EXPECT_EQ(sink.hops, 5u * static_cast<std::uint64_t>(cap));
}

/// One call a lane made into its policy: a prefetch hint or next_hop.
struct PolicyCall {
  enum class Kind { kPrefetch, kTables, kNextHop };
  Kind kind;
  std::size_t slot;
  bool operator==(const PolicyCall&) const = default;
};

/// Which optional prefetch hooks a HintLogPolicy has: none, as Viceroy;
/// prefetch_tables only, as CAN; or the stage-1 prefetch too, as Cycloid,
/// Chord, Koorde and Pastry.
enum class Hints { kNone, kTables, kBoth };

/// Logs every hint and next_hop call of one lookup, in order. Lookup `key`
/// forwards key % 5 hops along handles from, from + 1, ..., then ends by
/// key % 4: deliver, forward_deliver, fail, or cycling on to the hop cap.
/// Slots differ from handles, so the log shows the engine hands every hook
/// the slot slot_of resolved. kHints selects the optional hooks it has.
template <Hints kHints>
class HintLogPolicy : public FakePolicy {
 public:
  enum class Ending { kDeliver, kForwardDeliver, kFail, kHopCap };

  static std::size_t slot_for(NodeHandle node) { return 2 * node + 1; }

  HintLogPolicy(KeyHash key, std::vector<PolicyCall>* log)
      : hops_left_(static_cast<int>(key % 5)),
        ending_(static_cast<Ending>(key % 4)),
        log_(log) {}

  std::size_t slot_of(NodeHandle node) const { return slot_for(node); }
  void prefetch(std::size_t slot) const
    requires(kHints == Hints::kBoth)
  {
    log_->push_back({PolicyCall::Kind::kPrefetch, slot});
  }
  void prefetch_tables(std::size_t slot) const
    requires(kHints != Hints::kNone)
  {
    log_->push_back({PolicyCall::Kind::kTables, slot});
  }
  HopDecision next_hop(const RouteState& state) {
    log_->push_back({PolicyCall::Kind::kNextHop, state.current_slot()});
    const NodeHandle next = state.current() + 1;
    if (ending_ == Ending::kHopCap) return HopDecision::forward(next, 0);
    if (hops_left_ > 0) {
      --hops_left_;
      return HopDecision::forward(next, 0);
    }
    switch (ending_) {
      case Ending::kDeliver:
        return HopDecision::deliver();
      case Ending::kForwardDeliver:
        return HopDecision::forward_deliver(next, 0);
      default:
        return HopDecision::fail();
    }
  }

 private:
  int hops_left_;
  Ending ending_;
  std::vector<PolicyCall>* log_;
};

static_assert(StepPolicy<KeyedPolicy>);
static_assert(StepPolicy<HintLogPolicy<Hints::kNone>>);
static_assert(StepPolicy<HintLogPolicy<Hints::kTables>>);
static_assert(StepPolicy<HintLogPolicy<Hints::kBoth>>);

/// Routes 23 lookups through HintLogPolicy<kHints> at widths 1, 3 and 8
/// and checks each lookup's outcome and its exact call log.
template <Hints kHints>
void expect_hint_schedule() {
  using Policy = HintLogPolicy<kHints>;
  constexpr std::size_t kCount = 23;
  const int cap = FakePolicy().default_max_hops();
  std::vector<NodeHandle> froms(kCount);
  std::vector<KeyHash> keys(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    froms[i] = 1000 * (i + 1);
    keys[i] = i;
  }
  for (const int width : {1, 3, 8}) {
    SCOPED_TRACE("width " + std::to_string(width));
    std::vector<std::vector<PolicyCall>> logs(kCount);
    LookupMetrics sink;
    std::vector<LookupResult> results(kCount);
    BatchScratch lanes;
    Router::route_batch(
        froms.data(), keys.data(), kCount, width, sink, results.data(), lanes,
        RouterOptions{},
        [&](NodeHandle, KeyHash key) { return Policy(key, &logs[key]); });
    for (std::size_t i = 0; i < kCount; ++i) {
      SCOPED_TRACE("lookup " + std::to_string(i));
      const auto ending = static_cast<typename Policy::Ending>(i % 4);
      int hops = static_cast<int>(i % 5);
      LookupStatus status = LookupStatus::kDelivered;
      if (ending == Policy::Ending::kForwardDeliver) hops += 1;
      if (ending == Policy::Ending::kFail) status = LookupStatus::kFailed;
      if (ending == Policy::Ending::kHopCap) {
        hops = cap;
        status = LookupStatus::kHopLimit;
      }
      EXPECT_EQ(results[i].status, status);
      EXPECT_EQ(results[i].hops, hops);
      EXPECT_EQ(results[i].destination, froms[i] + hops);

      // next_hop runs at the source and at every receiver except a final
      // hop's; at the cap it runs once more and its forward is refused.
      const int positions =
          ending == Policy::Ending::kForwardDeliver ? hops : hops + 1;
      std::vector<PolicyCall> expected;
      for (int p = 0; p < positions; ++p) {
        const std::size_t slot = Policy::slot_for(froms[i] + p);
        if (kHints == Hints::kBoth) {
          expected.push_back({PolicyCall::Kind::kPrefetch, slot});
        }
        if (kHints != Hints::kNone) {
          expected.push_back({PolicyCall::Kind::kTables, slot});
        }
        expected.push_back({PolicyCall::Kind::kNextHop, slot});
      }
      EXPECT_EQ(logs[i], expected);
    }
  }
}

TEST(DhtRouterBatchTest, EveryStepFollowsItsTwoPrefetchHintsOncePerPosition) {
  // The hints only issue prefetches, so output equality across widths
  // cannot see a hint dropped or misordered; this log can. At each
  // position the lane asks next_hop about, the engine must first have
  // called the policy's hints for that slot, each exactly once: prefetch
  // (when the hop there was committed, only for a policy with the stage-1
  // hook) and then prefetch_tables (one rotation later, only for a policy
  // with that hook). Nothing else is called — including where a lookup
  // starts, and never for the receiver of a final hop or a hop the cap
  // refused. A policy with no hint sees next_hop alone, once per position.
  {
    SCOPED_TRACE("no hint");
    expect_hint_schedule<Hints::kNone>();
  }
  {
    SCOPED_TRACE("prefetch_tables only");
    expect_hint_schedule<Hints::kTables>();
  }
  {
    SCOPED_TRACE("prefetch and prefetch_tables");
    expect_hint_schedule<Hints::kBoth>();
  }
}

TEST(DhtRouterBatchTest, WidthIsClampedToTheLaneArray) {
  // Widths below 1 and above kMaxBatchWidth are clamped, not rejected.
  const NodeHandle froms[] = {7, 8};
  const KeyHash keys[] = {0, 0};
  for (const int width : {-5, 0, 1, Router::kMaxBatchWidth + 20}) {
    SCOPED_TRACE("width " + std::to_string(width));
    LookupMetrics sink;
    LookupResult results[2];
    BatchScratch lanes;
    Router::route_batch(froms, keys, 2, width, sink, results, lanes,
                        RouterOptions{},
                        [](NodeHandle, KeyHash) { return FakePolicy(); });
    EXPECT_EQ(sink.lookups, 2u);
    EXPECT_TRUE(results[0].success);
    EXPECT_TRUE(results[1].success);
    EXPECT_EQ(results[0].destination, 7u);
    EXPECT_EQ(results[1].destination, 8u);
  }
}

TEST(DhtRouterDeathTest, TraceRequiresASingleLane) {
  // Lanes share RouterOptions::trace, so two lookups in flight would mix
  // their steps into one vector; the engine refuses instead.
  const NodeHandle froms[] = {1, 2};
  const KeyHash keys[] = {0, 0};
  std::vector<TraceStep> trace;
  RouterOptions options;
  options.trace = &trace;
  const auto route = [&](int width) {
    LookupMetrics sink;
    LookupResult results[2];
    BatchScratch lanes;
    Router::route_batch(froms, keys, 2, width, sink, results, lanes, options,
                        [](NodeHandle, KeyHash) { return FakePolicy(); });
  };
  EXPECT_DEATH(route(2), "Precondition");
  route(1);  // one lane at a time: the trace stays one route per lookup
  EXPECT_TRUE(trace.empty());  // delivered at the source, no hops
}

TEST(DhtRouterBatchTest, BatchScratchIsReusableAcrossBatches) {
  // Second batch through the same BatchScratch must start from clean lane
  // state (no leakage of the previous batch's bindings).
  const NodeHandle froms[] = {1, 2, 3, 4, 5};
  const KeyHash keys[] = {0, 0, 0, 0, 0};
  BatchScratch lanes;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    LookupMetrics sink;
    LookupResult results[5];
    Router::route_batch(froms, keys, 5, /*width=*/4, sink, results, lanes,
                        RouterOptions{},
                        [](NodeHandle, KeyHash) { return FakePolicy(); });
    EXPECT_EQ(sink.lookups, 5u);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(results[i].destination, froms[i]);
    }
  }
}

}  // namespace
}  // namespace cycloid::dht
