// Determinism of the sharded parallel lookup batch (exp::run_lookup_batch):
// the fixed shard size, per-shard splitmix64-derived RNG streams, and
// index-ordered merge must make the result bit-identical at any thread
// count — including, for Koorde, the repair-on-timeout learnings — and so
// must Fig. 10's per-node query-load tally (exp::query_loads). Also checks
// the const contract: a batch never mutates the network it routes over, and
// the allocation contract: a warmed-up lookup hot path (BatchScratch)
// performs zero heap allocations per lookup, and a single call allocates
// no per-node state.
#include "exp/workloads.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "dht/network.hpp"
#include "dht/router.hpp"
#include "exp/overlays.hpp"
#include "overlay_state_compare.hpp"
#include "pastry/pastry.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// Counting global allocator. This test binary replaces the replaceable
// allocation functions so tests can assert that a warmed-up lookup hot path
// allocates nothing, and how many bytes a call allocates. malloc-backed, so
// sanitizers still see every block.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Bytes requested from operator new so far (frees are not subtracted).
std::uint64_t allocated_bytes() {
  return g_allocated_bytes.load(std::memory_order_relaxed);
}

void count_allocation(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  count_allocation(size);
  if (void* ptr = std::malloc(size != 0 ? size : 1)) return ptr;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  count_allocation(size);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* ptr = std::aligned_alloc(alignment, rounded != 0 ? rounded
                                                             : alignment)) {
    return ptr;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

// Out of line: inlined into a caller that also sees the matching new, the
// free() of a block from operator new trips GCC's -Wmismatched-new-delete,
// although here both sides are malloc and free.
[[gnu::noinline]] void operator delete(void* ptr) noexcept { std::free(ptr); }
[[gnu::noinline]] void operator delete[](void* ptr) noexcept {
  std::free(ptr);
}
[[gnu::noinline]] void operator delete(void* ptr, std::size_t) noexcept {
  std::free(ptr);
}
[[gnu::noinline]] void operator delete[](void* ptr, std::size_t) noexcept {
  std::free(ptr);
}
[[gnu::noinline]] void operator delete(void* ptr,
                                       std::align_val_t) noexcept {
  std::free(ptr);
}
[[gnu::noinline]] void operator delete[](void* ptr,
                                         std::align_val_t) noexcept {
  std::free(ptr);
}
[[gnu::noinline]] void operator delete(void* ptr, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(ptr);
}
[[gnu::noinline]] void operator delete[](void* ptr, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(ptr);
}

namespace cycloid::exp {
namespace {

constexpr std::uint64_t kSeed = 0xDE7E12318A7C4ULL;

void expect_identical(const WorkloadStats& a, const WorkloadStats& b) {
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.incorrect, b.incorrect);

  // Sample vectors compare elementwise: merge order is part of the contract.
  EXPECT_EQ(a.path_length.samples(), b.path_length.samples());
  EXPECT_EQ(a.timeouts.samples(), b.timeouts.samples());

  EXPECT_EQ(a.metrics.lookups, b.metrics.lookups);
  EXPECT_EQ(a.metrics.hops, b.metrics.hops);
  EXPECT_EQ(a.metrics.timeouts, b.metrics.timeouts);
  EXPECT_EQ(a.metrics.failures, b.metrics.failures);
  EXPECT_EQ(a.metrics.guard_fallbacks, b.metrics.guard_fallbacks);
  EXPECT_EQ(a.metrics.phase_hops, b.metrics.phase_hops);
  EXPECT_EQ(a.metrics.mean_path(), b.metrics.mean_path());

  EXPECT_EQ(a.metrics.learned_links(), b.metrics.learned_links());
  EXPECT_EQ(a.metrics.broken_links(), b.metrics.broken_links());
}

TEST(ParallelLookupBatch, CycloidBitIdenticalAcrossThreadCounts) {
  auto net = make_dense_overlay(OverlayKind::kCycloid7, 8, kSeed);  // 2048
  ASSERT_EQ(net->node_count(), 2048u);

  // > 2 shards so the merge order actually matters.
  const std::uint64_t count = 3 * kLookupShardSize;
  const auto seq = run_lookup_batch(*net, count, kSeed + 1, 1);
  const auto par = run_lookup_batch(*net, count, kSeed + 1, 8);

  EXPECT_EQ(seq.lookups, count);
  expect_identical(seq, par);
}

TEST(ParallelLookupBatch, ChordBitIdenticalAcrossThreadCounts) {
  auto net = make_dense_overlay(OverlayKind::kChord, 8, kSeed);  // 2048
  ASSERT_EQ(net->node_count(), 2048u);

  const std::uint64_t count = 3 * kLookupShardSize;
  const auto seq = run_lookup_batch(*net, count, kSeed + 2, 1);
  const auto par = run_lookup_batch(*net, count, kSeed + 2, 8);

  EXPECT_EQ(seq.lookups, count);
  expect_identical(seq, par);
}

TEST(ParallelLookupBatch, KoordeRepairLearningsDeterministicUnderFailures) {
  // Mass departure makes Koorde's lookups hit dead de Bruijn pointers, so
  // shards learn backup promotions into their sinks; those learnings must
  // merge identically at any thread count.
  auto net = make_dense_overlay(OverlayKind::kKoorde, 7, kSeed);  // 896
  util::Rng fail_rng(kSeed + 3);
  net->fail_simultaneously(0.3, fail_rng);

  const std::uint64_t count = 2 * kLookupShardSize;
  const auto seq = run_lookup_batch(*net, count, kSeed + 4, 1);
  const auto par = run_lookup_batch(*net, count, kSeed + 4, 4);

  expect_identical(seq, par);
}

// Fig. 10's per-node query load is tallied from route traces, shard by
// shard; integer sums do not depend on order, so the tally is identical at
// any thread count, partial last shard included.
TEST(ParallelLookupBatch, QueryLoadTallyIdenticalAcrossThreadCounts) {
  for (const OverlayKind kind : extended_overlays()) {
    SCOPED_TRACE(overlay_label(kind));
    auto net = make_sparse_overlay(kind, 8, 600, kSeed + 16);
    const std::uint64_t count = 2 * kLookupShardSize + 37;
    const std::vector<std::uint64_t> seq =
        query_loads(*net, count, kSeed + 17, 1);
    EXPECT_EQ(seq.size(), net->node_count());
    EXPECT_EQ(seq, query_loads(*net, count, kSeed + 17, 4));
  }
}

TEST(ParallelLookupBatch, PartialLastShardAndZeroCount) {
  auto net = make_dense_overlay(OverlayKind::kCycloid7, 6, kSeed);  // 384

  const std::uint64_t count = kLookupShardSize + 37;
  const auto seq = run_lookup_batch(*net, count, kSeed + 5, 1);
  const auto par = run_lookup_batch(*net, count, kSeed + 5, 16);
  EXPECT_EQ(seq.lookups, count);
  expect_identical(seq, par);

  const auto empty = run_lookup_batch(*net, 0, kSeed + 6, 4);
  EXPECT_EQ(empty.lookups, 0u);
  EXPECT_EQ(empty.metrics.hops, 0u);
}

// Interleave width (DESIGN.md §14) composes with thread count: the batch
// must stay bit-identical across the full (W, threads) grid, because the
// per-shard RNG streams are drawn before routing and the lane scheduler
// only reorders hop execution, never results or merge order.
TEST(ParallelLookupBatch, BitIdenticalAcrossInterleaveWidthsAndThreads) {
  auto net = make_dense_overlay(OverlayKind::kCycloid7, 8, kSeed);  // 2048

  const std::uint64_t count = 3 * kLookupShardSize;
  const auto seq = run_lookup_batch(*net, count, kSeed + 12, 1);
  for (const int width : {2, 4, 8}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("W=" + std::to_string(width) +
                   " threads=" + std::to_string(threads));
      const auto wide = run_lookup_batch(*net, count, kSeed + 12, threads,
                                         /*check_owner=*/true, width);
      expect_identical(seq, wide);
    }
  }
}

TEST(ParallelLookupBatch, KoordeRepairLearningsSurviveInterleaveRequest) {
  // With dead de Bruijn pointers, Koorde's sink learnings are order-
  // dependent, so its route_batch degrades any requested width to 1
  // and must still reproduce the sequential stream bit for bit.
  auto net = make_dense_overlay(OverlayKind::kKoorde, 7, kSeed);  // 896
  util::Rng fail_rng(kSeed + 13);
  net->fail_simultaneously(0.3, fail_rng);

  const std::uint64_t count = 2 * kLookupShardSize;
  const auto seq = run_lookup_batch(*net, count, kSeed + 14, 1);
  const auto wide = run_lookup_batch(*net, count, kSeed + 14, 4,
                                     /*check_owner=*/true, 8);
  expect_identical(seq, wide);
}

TEST(ParallelLookupBatch, ProcessWideInterleaveDefaultIsHonored) {
  auto net = make_dense_overlay(OverlayKind::kChord, 7, kSeed);  // 896

  const std::uint64_t count = kLookupShardSize + 100;
  const auto seq = run_lookup_batch(*net, count, kSeed + 15, 1);

  // interleave = 0 defers to the process-wide default (the bench knob).
  set_lookup_interleave(4);
  EXPECT_EQ(lookup_interleave(), 4);
  const auto wide = run_lookup_batch(*net, count, kSeed + 15, 1);
  expect_identical(seq, wide);

  // The setter clamps nonsense widths to the sequential path.
  set_lookup_interleave(0);
  EXPECT_EQ(lookup_interleave(), 1);
  set_lookup_interleave(-3);
  EXPECT_EQ(lookup_interleave(), 1);

  // An explicit per-call width overrides whatever the process default is.
  set_lookup_interleave(8);
  const auto forced_seq = run_lookup_batch(*net, count, kSeed + 15, 1,
                                           /*check_owner=*/true, 1);
  expect_identical(seq, forced_seq);
  set_lookup_interleave(1);
}

TEST(ParallelLookupBatch, BatchDoesNotMutateTheNetwork) {
  for (const OverlayKind kind :
       {OverlayKind::kCycloid7, OverlayKind::kKoorde}) {
    SCOPED_TRACE(overlay_label(kind));
    // Two identical networks; only `net` routes. Departures leave stale
    // entries, so Koorde's lookups learn promotions into their sinks —
    // which must stay there until absorbed.
    auto net = make_dense_overlay(kind, 7, kSeed);        // 896
    auto untouched = make_dense_overlay(kind, 7, kSeed);  // 896
    util::Rng fail_rng(kSeed + 8);
    util::Rng same_fail_rng(kSeed + 8);
    net->fail_ungraceful(0.2, fail_rng);
    untouched->fail_ungraceful(0.2, same_fail_rng);
    const dht::MaintenanceBreakdown maintenance =
        net->maintenance_metrics().by_cause();

    const auto stats =
        run_lookup_batch(*net, 2 * kLookupShardSize, kSeed + 7, 4);
    EXPECT_GT(stats.metrics.hops, 0u);
    EXPECT_GT(stats.metrics.timeouts, 0u);

    // All accounting stayed in the caller-owned sinks: membership, routing
    // state, and the maintenance counters are exactly as before the batch.
    expect_same_state(kind, *net, *untouched);
    EXPECT_EQ(net->maintenance_metrics().by_cause(), maintenance);
  }
}

// The allocation contract behind run_lookup_batch's throughput: once the
// caller-owned BatchScratch lanes have reached capacity, replaying the
// *same* lookup batch allocates nothing — on every overlay, one lookup at
// a time (W=1) and interleaved (W=8). The warm-up pass and the measured
// pass route the same inputs, so the measured pass never needs more
// capacity than the warm-up already provisioned.
TEST(LookupAllocation, WarmedHotPathAllocatesNothingOnAnyOverlay) {
  constexpr std::size_t kLookups = 256;
  for (const OverlayKind kind : extended_overlays()) {
    auto net = make_sparse_overlay(kind, 8, 300, kSeed + 9);
    std::array<dht::NodeHandle, kLookups> froms;
    std::array<dht::KeyHash, kLookups> keys;
    std::array<dht::LookupResult, kLookups> results;
    util::Rng rng(kSeed + 10);
    for (std::size_t i = 0; i < kLookups; ++i) {
      froms[i] = net->random_node(rng);
      keys[i] = rng();
    }
    for (const int width : {1, 8}) {
      SCOPED_TRACE(overlay_label(kind) + " W=" + std::to_string(width));
      dht::LookupMetrics sink;
      dht::BatchScratch lanes;
      const auto route = [&] {
        net->route_batch(froms.data(), keys.data(), kLookups, width, sink,
                         results.data(), lanes, dht::RouterOptions{});
      };
      route();  // warm-up: the lanes reach capacity
      const std::uint64_t before = allocation_count();
      route();
      EXPECT_EQ(allocation_count() - before, 0u);
    }
  }
}

// Cycloid's records hold their leaf sets inline, so a stabilization pass
// rewrites them in place: after one warm-up pass, a pass allocates the same
// (size-independent) amount at 2^8 and at 2^11 nodes, where one heap block
// per refreshed leaf set would grow with n.
TEST(StabilizeAllocation, CycloidPassAllocatesIndependentlyOfNetworkSize) {
  for (const OverlayKind kind :
       {OverlayKind::kCycloid7, OverlayKind::kCycloid11}) {
    SCOPED_TRACE(overlay_label(kind));
    const auto warmed_pass_allocations = [&](int dimension, std::size_t n) {
      auto net = make_sparse_overlay(kind, dimension, n, kSeed + 12);
      net->stabilize_all(1);  // warm-up
      const std::uint64_t before = allocation_count();
      net->stabilize_all(1);
      return allocation_count() - before;
    };
    EXPECT_EQ(warmed_pass_allocations(6, 1u << 8),
              warmed_pass_allocations(8, 1u << 11));
  }
}

// Pastry rewrites its leaf sets, routing rows and neighbourhood in place,
// and ranks neighbourhood candidates in a per-thread buffer, so a warm pass
// allocates the same at 2^8 and 2^11 nodes.
TEST(StabilizeAllocation, PastryPassAllocatesIndependentlyOfNetworkSize) {
  const auto warmed_pass_allocations = [](int dimension, std::size_t n) {
    auto net = make_sparse_overlay(OverlayKind::kPastry, dimension, n,
                                   kSeed + 13);
    net->stabilize_all(1);  // warm-up
    const std::uint64_t before = allocation_count();
    net->stabilize_all(1);
    return allocation_count() - before;
  };
  EXPECT_EQ(warmed_pass_allocations(6, 1u << 8),
            warmed_pass_allocations(8, 1u << 11));
}

// A Pastry join, a leave of the newcomer and the drain after them allocate
// the newcomer's own state (two leaf vectors, its table's rows + 1 blocks
// and its neighbourhood) and the drain's slot list: nothing per queued
// handle, per repaired leaf set or per refreshed node. The second,
// identical cycle runs on warm containers, the dirty queue's index
// included.
TEST(MaintenanceAllocation, PastryJoinLeaveAndDrainAllocateNoPerNodeState) {
  constexpr int kBits = 16;
  const auto cycle_cost = [](std::size_t n) {
    util::Rng rng(kSeed + 14);
    auto net = pastry::PastryNetwork::build_random(kBits, n, rng, 1);
    net->set_dirty_tracking(true);
    const std::uint64_t seed = rng();
    std::uint64_t cost = 0;
    for (int cycle = 0; cycle < 2; ++cycle) {
      const std::uint64_t before = allocation_count();
      const dht::NodeHandle newcomer = net->join(seed);
      EXPECT_NE(newcomer, dht::kNoNode);
      net->leave(newcomer);
      net->stabilize_dirty(1);
      cost = allocation_count() - before;
    }
    return cost;
  };
  const std::uint64_t small = cycle_cost(1u << 8);
  EXPECT_EQ(small, cycle_cost(1u << 11));
  EXPECT_LE(small, static_cast<std::uint64_t>(kBits) + 8);
}

// A single call holds no per-node state: one route() + absorb() through a
// fresh sink allocates the call's own lane buffers and nothing that grows
// with n. An n-slot plane of 8-byte counters would alone be 32 KiB here.
TEST(LookupAllocation, SingleCallAllocatesNoPerNodeState) {
  constexpr std::size_t kNodes = 1u << 12;
  constexpr std::uint64_t kMaxBytes = 4096;
  for (const OverlayKind kind : extended_overlays()) {
    SCOPED_TRACE(overlay_label(kind));
    auto net = make_sparse_overlay(kind, 10, kNodes, kSeed + 18);
    ASSERT_EQ(net->node_count(), kNodes);
    util::Rng rng(kSeed + 19);
    for (int i = 0; i < 32; ++i) {
      const dht::NodeHandle from = net->random_node(rng);
      const dht::KeyHash key = rng();
      const std::uint64_t before = allocated_bytes();
      dht::LookupMetrics sink;
      net->route(from, key, sink, dht::RouterOptions{});
      net->absorb(sink);
      EXPECT_LT(allocated_bytes() - before, kMaxBytes) << "lookup " << i;
    }
  }
}

// End-to-end view of the same contract: growing a single-thread batch by
// three full shards must cost only per-shard fixed overhead (scratch,
// per-shard sink, sample-vector growth, merge) — far below one heap
// allocation per additional lookup.
TEST(LookupAllocation, BatchAllocationsStaySublinearInLookupCount) {
  auto net = make_dense_overlay(OverlayKind::kCycloid7, 8, kSeed);  // 2048

  // Throwaway run so process-wide lazy initialization is off the books.
  run_lookup_batch(*net, kLookupShardSize, kSeed + 11, 1);

  const std::uint64_t before_small = allocation_count();
  run_lookup_batch(*net, kLookupShardSize, kSeed + 11, 1);
  const std::uint64_t small = allocation_count() - before_small;

  const std::uint64_t before_large = allocation_count();
  run_lookup_batch(*net, 4 * kLookupShardSize, kSeed + 11, 1);
  const std::uint64_t large = allocation_count() - before_large;

  const std::uint64_t extra_lookups = 3 * kLookupShardSize;  // 6144
  EXPECT_LT(large - small, extra_lookups / 8);
}

}  // namespace
}  // namespace cycloid::exp
