// Conformance suite: every overlay implementation must satisfy the
// DhtNetwork contract. Parameterized over all five systems so the
// experiment drivers can treat them interchangeably.
//
// The second half pins the shared routing engine (dht::Router): per-overlay
// trace/hop/timeout invariants, hop-cap semantics, and sink totals that must
// stay bit-identical to the values the per-overlay hop loops produced
// before the engine refactor.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

#include "dht/network.hpp"
#include "exp/overlays.hpp"
#include "exp/workloads.hpp"
#include "util/rng.hpp"

namespace cycloid::exp {
namespace {

using dht::kNoNode;
using dht::NodeHandle;

class ConformanceTest : public ::testing::TestWithParam<OverlayKind> {
 protected:
  std::unique_ptr<dht::DhtNetwork> make(std::size_t count, std::uint64_t seed) {
    return make_sparse_overlay(GetParam(), 8, count, seed);
  }
};

TEST_P(ConformanceTest, NodeHandlesAreUniqueAndContained) {
  auto net = make(300, 1);
  EXPECT_EQ(net->node_count(), 300u);
  const auto handles = net->node_handles();
  EXPECT_EQ(handles.size(), 300u);
  const std::set<NodeHandle> unique(handles.begin(), handles.end());
  EXPECT_EQ(unique.size(), 300u);
  for (const NodeHandle h : handles) EXPECT_TRUE(net->contains(h));
  EXPECT_FALSE(net->contains(kNoNode));
}

TEST_P(ConformanceTest, RandomNodeIsAMember) {
  auto net = make(50, 2);
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(net->contains(net->random_node(rng)));
  }
}

TEST_P(ConformanceTest, RandomNodeCoversTheMembership) {
  auto net = make(20, 4);
  util::Rng rng(5);
  std::set<NodeHandle> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(net->random_node(rng));
  EXPECT_EQ(seen.size(), net->node_count());
}

TEST_P(ConformanceTest, OwnerIsStableAndContained) {
  auto net = make(150, 6);
  util::Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    const dht::KeyHash key = rng();
    const NodeHandle owner = net->owner_of(key);
    EXPECT_TRUE(net->contains(owner));
    EXPECT_EQ(owner, net->owner_of(key));  // deterministic
  }
}

TEST_P(ConformanceTest, LookupFromEverySourceFindsOwner) {
  auto net = make(120, 8);
  util::Rng rng(9);
  dht::LookupMetrics sink;
  for (const NodeHandle from : net->node_handles()) {
    const dht::KeyHash key = rng();
    const dht::LookupResult result = net->lookup(from, key, sink);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.destination, net->owner_of(key));
  }
}

TEST_P(ConformanceTest, PhaseNamesMatchResultSlots) {
  auto net = make(100, 10);
  const auto names = net->phase_names();
  EXPECT_GE(names.size(), 1u);  // CAN's greedy walk is a single phase
  EXPECT_LE(names.size(), dht::kMaxPhases);
  util::Rng rng(11);
  dht::LookupMetrics sink;
  for (int i = 0; i < 100; ++i) {
    const dht::LookupResult result =
        net->lookup(net->random_node(rng), rng(), sink);
    // No hops may land outside the named phases.
    for (std::size_t p = names.size(); p < dht::kMaxPhases; ++p) {
      EXPECT_EQ(result.phase_hops[p], 0);
    }
    int sum = 0;
    for (const int h : result.phase_hops) sum += h;
    EXPECT_EQ(sum, result.hops);
  }
}

TEST_P(ConformanceTest, QueryLoadAccountsEveryHop) {
  // Fig. 10's tally counts each traced hop once for its receiver, so the
  // loads sum to the hops of the same lookups routed untraced.
  auto net = make(200, 12);
  const auto loads = query_loads(*net, 500, /*seed=*/13, /*threads=*/1);
  EXPECT_EQ(loads.size(), net->node_count());
  std::uint64_t received = 0;
  for (const std::uint64_t l : loads) received += l;
  const WorkloadStats routed = run_lookup_batch(*net, 500, 13, 1);
  EXPECT_GT(routed.metrics.hops, 0u);
  EXPECT_EQ(received, routed.metrics.hops);
}

TEST_P(ConformanceTest, JoinAddsContainedNode) {
  auto net = make(40, 14);
  util::Rng rng(15);
  std::size_t added = 0;
  for (int i = 0; i < 30; ++i) {
    const NodeHandle h = net->join(rng());
    if (h == kNoNode) continue;
    ++added;
    EXPECT_TRUE(net->contains(h));
  }
  EXPECT_GT(added, 0u);
  EXPECT_EQ(net->node_count(), 40u + added);
}

TEST_P(ConformanceTest, LeaveRemovesNode) {
  auto net = make(40, 16);
  util::Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    const NodeHandle victim = net->random_node(rng);
    net->leave(victim);
    EXPECT_FALSE(net->contains(victim));
  }
  EXPECT_EQ(net->node_count(), 20u);
}

TEST_P(ConformanceTest, LookupsCorrectAfterChurnPlusStabilize) {
  auto net = make(100, 18);
  util::Rng rng(19);
  for (int round = 0; round < 60; ++round) {
    if (rng.chance(0.5) && net->node_count() > 10) {
      net->leave(net->random_node(rng));
    } else {
      net->join(rng());
    }
  }
  net->stabilize_all();
  dht::LookupMetrics sink;
  for (int i = 0; i < 200; ++i) {
    const dht::KeyHash key = rng();
    const dht::LookupResult result =
        net->lookup(net->random_node(rng), key, sink);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.destination, net->owner_of(key));
    EXPECT_EQ(result.timeouts, 0);
  }
}

TEST_P(ConformanceTest, FailSimultaneouslyLeavesWorkingNetwork) {
  auto net = make(300, 20);
  util::Rng rng(21);
  net->fail_simultaneously(0.3, rng);
  EXPECT_GT(net->node_count(), 0u);
  std::uint64_t resolved = 0;
  for (int i = 0; i < 300; ++i) {
    const dht::KeyHash key = rng();
    // Absorb each lookup so Koorde's backup promotions repair the network.
    dht::LookupMetrics sink;
    const dht::LookupResult result =
        net->lookup(net->random_node(rng), key, sink);
    net->absorb(sink);
    if (result.success) {
      EXPECT_EQ(result.destination, net->owner_of(key));
      ++resolved;
    }
  }
  // Cycloid/Chord/Viceroy resolve everything; Koorde may lose a few lookups
  // to dead pointer sets, but the vast majority must still resolve.
  EXPECT_GE(resolved, 270u);
}

// The maintenance engine records which departure semantics actually ran.
// Overlays with a stale-state model honor the ungraceful request; Viceroy
// and CAN repair eagerly (their lookups never hit departed nodes), so the
// engine deliberately falls back to graceful semantics for them — the
// silent fallback the per-overlay fail_* bodies used to hide.
TEST_P(ConformanceTest, DepartureSemanticsAreRecorded) {
  auto net = make(200, 23);
  EXPECT_EQ(net->last_departure_semantics(), dht::DepartureSemantics::kNone);

  util::Rng graceful_rng(24);
  net->fail_simultaneously(0.1, graceful_rng);
  EXPECT_EQ(net->last_departure_semantics(),
            dht::DepartureSemantics::kGraceful);

  util::Rng ungraceful_rng(25);
  net->fail_ungraceful(0.1, ungraceful_rng);
  const bool eager = GetParam() == OverlayKind::kViceroy ||
                     GetParam() == OverlayKind::kCan;
  EXPECT_EQ(net->last_departure_semantics(),
            eager ? dht::DepartureSemantics::kGraceful
                  : dht::DepartureSemantics::kUngraceful);
  EXPECT_EQ(net->has_stale_entries(), !eager);
  net->stabilize_all();
  EXPECT_FALSE(net->has_stale_entries());

  // An empty sample records the semantics that ran but changes nothing:
  // no repair is charged and no entry goes stale.
  const std::uint64_t settled = net->maintenance_metrics().total();
  net->fail_ungraceful(0.0, ungraceful_rng);
  EXPECT_EQ(net->last_departure_semantics(),
            eager ? dht::DepartureSemantics::kGraceful
                  : dht::DepartureSemantics::kUngraceful);
  EXPECT_EQ(net->maintenance_metrics().total(), settled);
  EXPECT_FALSE(net->has_stale_entries());
  net->fail_simultaneously(0.0, graceful_rng);
  EXPECT_EQ(net->last_departure_semantics(),
            dht::DepartureSemantics::kGraceful);
  EXPECT_EQ(net->maintenance_metrics().total(), settled);
  ASSERT_FALSE(net->has_stale_entries());

  // A single vanish records its semantics the same way. The empty graceful
  // sample reset the record, so the checks see the vanish's own.
  util::Rng victim_rng(26);
  const std::size_t before = net->node_count();
  net->fail_ungraceful(net->random_node(victim_rng));
  EXPECT_EQ(net->node_count(), before - 1);
  EXPECT_EQ(net->last_departure_semantics(),
            eager ? dht::DepartureSemantics::kGraceful
                  : dht::DepartureSemantics::kUngraceful);
  EXPECT_EQ(net->has_stale_entries(), !eager);
}

TEST_P(ConformanceTest, NameIsStable) {
  auto net = make(10, 22);
  EXPECT_EQ(net->name(), overlay_label(GetParam()));
}

// ---------------------------------------------------------------------------
// Routing-engine invariants (dht::Router), parameterized over all overlays.

TEST_P(ConformanceTest, TraceLengthEqualsHopsAndDeliveryIsOwner) {
  auto net = make(150, 24);
  util::Rng rng(25);
  for (int i = 0; i < 200; ++i) {
    const NodeHandle from = net->random_node(rng);
    const dht::KeyHash key = rng();
    dht::LookupMetrics sink;
    std::vector<dht::TraceStep> trace;
    dht::RouterOptions options;
    options.trace = &trace;
    const dht::LookupResult result = net->route(from, key, sink, options);
    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.destination, net->owner_of(key));
    // One TraceStep per counted hop; the last step is the delivery node.
    ASSERT_EQ(trace.size(), static_cast<std::size_t>(result.hops));
    if (!trace.empty()) {
      EXPECT_EQ(trace.back().node, result.destination);
    }
    int traced_timeouts = 0;
    for (const dht::TraceStep& step : trace) {
      EXPECT_TRUE(net->contains(step.node));
      traced_timeouts += step.timeouts_before;
    }
    // Fresh network: no dead contacts anywhere along the route.
    EXPECT_EQ(result.timeouts, 0);
    EXPECT_EQ(traced_timeouts, 0);
  }
}

TEST_P(ConformanceTest, TraceTimeoutDeltasSumToLookupTimeouts) {
  auto net = make(300, 26);
  util::Rng rng(27);
  net->fail_ungraceful(0.25, rng);
  for (int i = 0; i < 200; ++i) {
    const NodeHandle from = net->random_node(rng);
    const dht::KeyHash key = rng();
    dht::LookupMetrics sink;
    std::vector<dht::TraceStep> trace;
    dht::RouterOptions options;
    options.trace = &trace;
    const dht::LookupResult result = net->route(from, key, sink, options);
    ASSERT_EQ(trace.size(), static_cast<std::size_t>(result.hops));
    // Every timeout the engine charged is attributed to exactly one hop
    // (timeouts after the final hop only occur on failed lookups).
    int traced_timeouts = 0;
    for (const dht::TraceStep& step : trace) {
      traced_timeouts += step.timeouts_before;
    }
    EXPECT_LE(traced_timeouts, result.timeouts);
    // A "successful" lookup may still land off the ground-truth owner here
    // (stale leaf sets before stabilization — counted as `incorrect` by the
    // workloads and pinned by the golden totals below), but it must at
    // least terminate at a live node.
    if (result.success) {
      EXPECT_TRUE(net->contains(result.destination));
    }
  }
}

TEST_P(ConformanceTest, HopCapReportsHopLimitStatus) {
  auto net = make(200, 28);
  util::Rng rng(29);
  // Find a lookup that needs at least two hops, then cap it at one.
  for (int i = 0; i < 500; ++i) {
    const NodeHandle from = net->random_node(rng);
    const dht::KeyHash key = rng();
    dht::LookupMetrics sink;
    if (net->route(from, key, sink, {}).hops < 2) continue;
    dht::LookupMetrics capped_sink;
    dht::RouterOptions options;
    options.max_hops = 1;
    const dht::LookupResult capped =
        net->route(from, key, capped_sink, options);
    EXPECT_FALSE(capped.success);
    EXPECT_EQ(capped.status, dht::LookupStatus::kHopLimit);
    EXPECT_EQ(capped.hops, 1);
    EXPECT_EQ(capped_sink.failures, 1u);
    return;
  }
  FAIL() << "no multi-hop lookup found in 500 draws";
}

// Sink totals captured from the per-overlay hop loops immediately before
// the engine refactor (sparse 300-node networks, d=8 space, fixed seeds).
// The engine must reproduce them bit for bit: hops, per-phase attribution,
// timeout charges, failure counts, and owner-correctness are all covered.
struct GoldenTotals {
  std::uint64_t hops;
  std::uint64_t timeouts;
  std::uint64_t failures;
  std::uint64_t guard_fallbacks;
  std::array<std::uint64_t, dht::kMaxPhases> phase_hops;
  std::uint64_t stat_failures;  // WorkloadStats::failures
  std::uint64_t incorrect;      // WorkloadStats::incorrect
};

struct GoldenEntry {
  OverlayKind kind;
  GoldenTotals fresh;       // 3000 lookups, batch seed 1234
  GoldenTotals after_fail;  // +fail_ungraceful(0.25, Rng(7)), 2000 @ 555
};

constexpr GoldenEntry kGoldenTotals[] = {
    {OverlayKind::kCycloid7,
     GoldenTotals{24653u, 0u, 0u, 0u, {5476u, 11205u, 7972u, 0u}, 0u, 0u},
     GoldenTotals{8265u, 7154u, 0u, 0u, {2202u, 3337u, 2726u, 0u}, 0u, 1338u}},
    {OverlayKind::kCycloid11,
     GoldenTotals{19461u, 0u, 0u, 0u, {4346u, 10036u, 5079u, 0u}, 0u, 0u},
     GoldenTotals{12375u, 14122u, 0u, 0u, {3301u, 4811u, 4263u, 0u}, 0u,
                  827u}},
    {OverlayKind::kViceroy,
     GoldenTotals{32205u, 0u, 0u, 0u, {12158u, 7633u, 12414u, 0u}, 0u, 0u},
     GoldenTotals{21225u, 0u, 0u, 0u, {7862u, 5000u, 8363u, 0u}, 0u, 0u}},
    {OverlayKind::kChord,
     GoldenTotals{14958u, 0u, 0u, 0u, {11969u, 2989u, 0u, 0u}, 0u, 0u},
     GoldenTotals{10676u, 5978u, 92u, 0u, {8614u, 2062u, 0u, 0u}, 92u, 0u}},
    {OverlayKind::kKoorde,
     GoldenTotals{54242u, 0u, 0u, 0u, {20730u, 33512u, 0u, 0u}, 0u, 0u},
     GoldenTotals{29791u, 13831u, 35u, 0u, {11608u, 18183u, 0u, 0u}, 35u,
                  361u}},
    {OverlayKind::kPastry,
     GoldenTotals{10276u, 0u, 0u, 0u, {7929u, 2347u, 0u, 0u}, 0u, 0u},
     GoldenTotals{7309u, 13765u, 0u, 0u, {5781u, 1528u, 0u, 0u}, 0u, 41u}},
    {OverlayKind::kCan,
     GoldenTotals{21901u, 0u, 0u, 0u, {21901u, 0u, 0u, 0u}, 0u, 0u},
     GoldenTotals{11920u, 0u, 0u, 0u, {11920u, 0u, 0u, 0u}, 0u, 0u}},
};

void expect_totals(const GoldenTotals& want, const WorkloadStats& got) {
  EXPECT_EQ(got.metrics.hops, want.hops);
  EXPECT_EQ(got.metrics.timeouts, want.timeouts);
  EXPECT_EQ(got.metrics.failures, want.failures);
  EXPECT_EQ(got.metrics.guard_fallbacks, want.guard_fallbacks);
  for (std::size_t p = 0; p < dht::kMaxPhases; ++p) {
    EXPECT_EQ(got.metrics.phase_hops[p], want.phase_hops[p]) << "phase " << p;
  }
  EXPECT_EQ(got.failures, want.stat_failures);
  EXPECT_EQ(got.incorrect, want.incorrect);
}

TEST_P(ConformanceTest, SinkTotalsMatchPreEngineSeedValues) {
  const auto it =
      std::find_if(std::begin(kGoldenTotals), std::end(kGoldenTotals),
                   [&](const GoldenEntry& e) { return e.kind == GetParam(); });
  ASSERT_NE(it, std::end(kGoldenTotals));
  auto net = make_sparse_overlay(GetParam(), 8, 300, 42);
  expect_totals(it->fresh, run_lookup_batch(*net, 3000, 1234, 1));
  util::Rng rng(7);
  net->fail_ungraceful(0.25, rng);
  expect_totals(it->after_fail, run_lookup_batch(*net, 2000, 555, 1));
}

// The interleaved batch router (DESIGN.md §14) pins the same golden totals
// at every lane width: interleaving reorders the hop schedule across
// lookups, never any observable metric.
TEST_P(ConformanceTest, SinkTotalsMatchGoldenValuesAtEveryInterleaveWidth) {
  const auto it =
      std::find_if(std::begin(kGoldenTotals), std::end(kGoldenTotals),
                   [&](const GoldenEntry& e) { return e.kind == GetParam(); });
  ASSERT_NE(it, std::end(kGoldenTotals));
  for (const int width : {2, 3, 4, 8}) {
    SCOPED_TRACE("interleave width " + std::to_string(width));
    auto net = make_sparse_overlay(GetParam(), 8, 300, 42);
    expect_totals(it->fresh, run_lookup_batch(*net, 3000, 1234, 1,
                                              /*check_owner=*/true, width));
    util::Rng rng(7);
    net->fail_ungraceful(0.25, rng);
    expect_totals(it->after_fail, run_lookup_batch(*net, 2000, 555, 1,
                                                   /*check_owner=*/true,
                                                   width));
  }
}

// Stronger than the golden totals: per-lookup result equality between the
// sequential engine (net->route, one lookup at a time) and route_batch at
// every width — on a fresh network and after ungraceful failures (the
// latter exercises Koorde's stale-sink width-1 degradation).
TEST_P(ConformanceTest, RouteBatchMatchesSequentialPerLookup) {
  auto net = make(300, 42);
  const auto check = [&](std::uint64_t seed, std::size_t count) {
    // One fixed draw of (source, key) pairs for every schedule.
    util::Rng rng(seed);
    std::vector<NodeHandle> froms(count);
    std::vector<dht::KeyHash> keys(count);
    for (std::size_t i = 0; i < count; ++i) {
      froms[i] = net->random_node(rng);
      keys[i] = rng();
    }

    dht::LookupMetrics ref_sink;
    std::vector<dht::LookupResult> ref(count);
    for (std::size_t i = 0; i < count; ++i) {
      ref[i] = net->route(froms[i], keys[i], ref_sink, dht::RouterOptions{});
    }

    for (const int width : {1, 2, 3, 4, 8}) {
      SCOPED_TRACE("interleave width " + std::to_string(width));
      dht::LookupMetrics sink;
      std::vector<dht::LookupResult> results(count);
      dht::BatchScratch lanes;
      net->route_batch(froms.data(), keys.data(), count, width, sink,
                       results.data(), lanes, dht::RouterOptions{});
      for (std::size_t i = 0; i < count; ++i) {
        SCOPED_TRACE("lookup " + std::to_string(i));
        EXPECT_EQ(results[i].hops, ref[i].hops);
        EXPECT_EQ(results[i].timeouts, ref[i].timeouts);
        EXPECT_EQ(results[i].success, ref[i].success);
        EXPECT_EQ(results[i].status, ref[i].status);
        EXPECT_EQ(results[i].destination, ref[i].destination);
        EXPECT_EQ(results[i].phase_hops, ref[i].phase_hops);
      }
      EXPECT_EQ(sink.lookups, ref_sink.lookups);
      EXPECT_EQ(sink.hops, ref_sink.hops);
      EXPECT_EQ(sink.timeouts, ref_sink.timeouts);
      EXPECT_EQ(sink.failures, ref_sink.failures);
      EXPECT_EQ(sink.guard_fallbacks, ref_sink.guard_fallbacks);
      EXPECT_EQ(sink.phase_hops, ref_sink.phase_hops);
      EXPECT_EQ(sink.learned_links(), ref_sink.learned_links());
      EXPECT_EQ(sink.broken_links(), ref_sink.broken_links());
    }
  };
  check(/*seed=*/1234, /*count=*/600);
  util::Rng rng(7);
  net->fail_ungraceful(0.25, rng);
  check(/*seed=*/555, /*count=*/600);
}

// Which hop each timeout is charged to. The golden totals above pin only
// sums, so a dead entry charged one hop late would pass them; this digest
// covers every traced step's (node, phase, timeouts_before) and every
// route's (destination, status, timeouts) over 500 routes on the golden
// network after ungraceful failures.
struct TimeoutDigest {
  OverlayKind kind;
  std::uint64_t digest;
};

constexpr TimeoutDigest kTimeoutDigests[] = {
    {OverlayKind::kCycloid7, 0xf420faf71d05f45aULL},
    {OverlayKind::kCycloid11, 0x39fc59cb52ea9bc4ULL},
    {OverlayKind::kViceroy, 0x75a115cd32b0557dULL},
    {OverlayKind::kChord, 0xd6d8ed30f8fe5bd3ULL},
    {OverlayKind::kKoorde, 0x5e19286f17476ce9ULL},
    {OverlayKind::kPastry, 0x8dbe2905f3237c21ULL},
    {OverlayKind::kCan, 0x52347d7dc88ab400ULL},
};

TEST_P(ConformanceTest, TimeoutsAreChargedToTheHopThatMeetsThem) {
  const auto it = std::find_if(
      std::begin(kTimeoutDigests), std::end(kTimeoutDigests),
      [&](const TimeoutDigest& e) { return e.kind == GetParam(); });
  ASSERT_NE(it, std::end(kTimeoutDigests));
  auto net = make_sparse_overlay(GetParam(), 8, 300, 42);
  util::Rng fail_rng(7);
  net->fail_ungraceful(0.25, fail_rng);

  // FNV-1a over the little-endian bytes of each folded value.
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto fold = [&](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (value >> (8 * byte)) & 0xffu;
      digest *= 0x100000001b3ULL;
    }
  };
  util::Rng rng(43);
  dht::LookupMetrics sink;
  std::uint64_t timeouts = 0;
  for (int i = 0; i < 500; ++i) {
    const NodeHandle from = net->random_node(rng);
    const dht::KeyHash key = rng();
    std::vector<dht::TraceStep> trace;
    dht::RouterOptions options;
    options.trace = &trace;
    const dht::LookupResult result = net->route(from, key, sink, options);
    for (const dht::TraceStep& step : trace) {
      fold(step.node);
      fold(step.phase);
      fold(static_cast<std::uint64_t>(step.timeouts_before));
    }
    fold(result.destination);
    fold(static_cast<std::uint64_t>(result.status));
    fold(static_cast<std::uint64_t>(result.timeouts));
    timeouts += static_cast<std::uint64_t>(result.timeouts);
  }
  // Overlays that repair eagerly leave no dead entry to charge.
  const bool eager = GetParam() == OverlayKind::kViceroy ||
                     GetParam() == OverlayKind::kCan;
  EXPECT_EQ(timeouts > 0, !eager);
  EXPECT_EQ(digest, it->digest) << std::hex << "0x" << digest;
}

INSTANTIATE_TEST_SUITE_P(AllOverlays, ConformanceTest,
                         ::testing::ValuesIn(extended_overlays()),
                         [](const ::testing::TestParamInfo<OverlayKind>& info) {
                           std::string name = overlay_label(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace cycloid::exp
