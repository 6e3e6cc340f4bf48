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
class FakePolicy : public StepPolicy {
 public:
  HopDecision next_hop(const RouteState&) override {
    return HopDecision::deliver();
  }
  bool alive(NodeHandle node) const override {
    return !dead_.contains(node);
  }
  int default_max_hops() const override { return 16; }

  void kill(NodeHandle node) { dead_.insert(node); }

 private:
  std::set<NodeHandle> dead_;
};

/// route_batch builds each lane's policy by value, so the single-lookup
/// tests hand it this forwarding view: the test's own policy object does
/// the routing and keeps whatever it recorded observable afterwards.
class PolicyRef final : public StepPolicy {
 public:
  explicit PolicyRef(StepPolicy& policy) : policy_(&policy) {}
  HopDecision next_hop(const RouteState& state) override {
    return policy_->next_hop(state);
  }
  bool alive(NodeHandle node) const override { return policy_->alive(node); }
  int default_max_hops() const override { return policy_->default_max_hops(); }
  int fallback_budget() const override { return policy_->fallback_budget(); }
  bool track_visited() const override { return policy_->track_visited(); }
  double link_latency(NodeHandle a, NodeHandle b) const override {
    return policy_->link_latency(a, b);
  }

 private:
  StepPolicy* policy_;
};

/// One lookup from `from`: a one-lookup Router::route_batch at width 1.
LookupResult route_one(StepPolicy& policy, NodeHandle from, LookupMetrics& sink,
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
  HopDecision next_hop(const RouteState& state) override {
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
  HopDecision next_hop(const RouteState&) override {
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
  HopDecision next_hop(const RouteState& state) override {
    EXPECT_FALSE(state.attempt(kNoNode));  // silent miss, never a timeout
    EXPECT_FALSE(state.attempt(50));
    EXPECT_FALSE(state.attempt(50));  // repeat: no extra charge
    EXPECT_FALSE(state.attempt(51));
    EXPECT_TRUE(state.attempt(52));
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
  HopDecision next_hop(const RouteState& state) override {
    resolved = state.resolve_chain(10, 11, {12, 13}, locally_broken);
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
  HopDecision next_hop(const RouteState& state) override {
    if (state.fallback()) return HopDecision::deliver();
    steps_before_flip = state.hops();
    return HopDecision::forward(state.current() + 1, 0, "walk");
  }
  int fallback_budget() const override { return 3; }
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
  HopDecision next_hop(const RouteState&) override {
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
// label, per-hop timeout delta, and the policy's link latency.
class TracingPolicy : public FakePolicy {
 public:
  HopDecision next_hop(const RouteState& state) override {
    if (state.current() == 1) {
      EXPECT_FALSE(state.attempt(40));  // dead: charged to the first hop
      return HopDecision::forward(2, 0, "a");
    }
    if (state.current() == 2) return HopDecision::forward(3, 1, "b");
    return HopDecision::deliver();
  }
  double link_latency(NodeHandle a, NodeHandle b) const override {
    return static_cast<double>(a + b);
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
  EXPECT_DOUBLE_EQ(trace[0].latency, 3.0);
  EXPECT_EQ(trace[1].node, 3u);
  EXPECT_EQ(trace[1].phase, 1u);
  EXPECT_STREQ(trace[1].link, "b");
  EXPECT_EQ(trace[1].timeouts_before, 0);
  EXPECT_DOUBLE_EQ(trace[1].latency, 5.0);
}

// was_visited(): only tracked when the policy opts in; includes the source.
class VisitedPolicy : public FakePolicy {
 public:
  HopDecision next_hop(const RouteState& state) override {
    EXPECT_TRUE(state.was_visited(1));
    if (state.current() == 1) {
      EXPECT_FALSE(state.was_visited(2));
      return HopDecision::forward(2, 0, "step");
    }
    EXPECT_TRUE(state.was_visited(2));
    return HopDecision::deliver();
  }
  bool track_visited() const override { return true; }
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
  HopDecision next_hop(const RouteState&) override {
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
  HopDecision next_hop(const RouteState& state) override {
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

/// Logs every prefetch/prefetch_tables/next_hop call of one lookup, in
/// order. Lookup `key` forwards key % 5 hops along handles from, from + 1,
/// ..., then ends by key % 4: deliver, forward_deliver, fail, or cycling on
/// to the hop cap. Slots differ from handles, so the log shows the engine
/// hands every hook the slot slot_of resolved.
class HintLogPolicy : public FakePolicy {
 public:
  enum class Ending { kDeliver, kForwardDeliver, kFail, kHopCap };

  static std::size_t slot_for(NodeHandle node) { return 2 * node + 1; }

  HintLogPolicy(KeyHash key, std::vector<PolicyCall>* log)
      : hops_left_(static_cast<int>(key % 5)),
        ending_(static_cast<Ending>(key % 4)),
        log_(log) {}

  std::size_t slot_of(NodeHandle node) const override {
    return slot_for(node);
  }
  void prefetch(std::size_t slot) const override {
    log_->push_back({PolicyCall::Kind::kPrefetch, slot});
  }
  void prefetch_tables(std::size_t slot) const override {
    log_->push_back({PolicyCall::Kind::kTables, slot});
  }
  HopDecision next_hop(const RouteState& state) override {
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

TEST(DhtRouterBatchTest, EveryStepFollowsItsTwoPrefetchHintsOncePerPosition) {
  // The hints only issue prefetches, so output equality across widths
  // cannot see a hint dropped or misordered; this log can. At each
  // position the lane asks next_hop about, the engine must first have
  // called prefetch(slot) (when the hop there was committed) and then
  // prefetch_tables(slot) (one rotation later), each exactly once, and
  // nothing else — including where a lookup starts, and never for the
  // receiver of a final hop or a hop the cap refused.
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
    Router::route_batch(froms.data(), keys.data(), kCount, width, sink,
                        results.data(), lanes, RouterOptions{},
                        [&](NodeHandle, KeyHash key) {
                          return HintLogPolicy(key, &logs[key]);
                        });
    for (std::size_t i = 0; i < kCount; ++i) {
      SCOPED_TRACE("lookup " + std::to_string(i));
      const auto ending = static_cast<HintLogPolicy::Ending>(i % 4);
      int hops = static_cast<int>(i % 5);
      LookupStatus status = LookupStatus::kDelivered;
      if (ending == HintLogPolicy::Ending::kForwardDeliver) hops += 1;
      if (ending == HintLogPolicy::Ending::kFail) {
        status = LookupStatus::kFailed;
      }
      if (ending == HintLogPolicy::Ending::kHopCap) {
        hops = cap;
        status = LookupStatus::kHopLimit;
      }
      EXPECT_EQ(results[i].status, status);
      EXPECT_EQ(results[i].hops, hops);
      EXPECT_EQ(results[i].destination, froms[i] + hops);

      // next_hop runs at the source and at every receiver except a final
      // hop's; at the cap it runs once more and its forward is refused.
      const int positions =
          ending == HintLogPolicy::Ending::kForwardDeliver ? hops : hops + 1;
      std::vector<PolicyCall> expected;
      for (int p = 0; p < positions; ++p) {
        const std::size_t slot = HintLogPolicy::slot_for(froms[i] + p);
        expected.push_back({PolicyCall::Kind::kPrefetch, slot});
        expected.push_back({PolicyCall::Kind::kTables, slot});
        expected.push_back({PolicyCall::Kind::kNextHop, slot});
      }
      EXPECT_EQ(logs[i], expected);
    }
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
