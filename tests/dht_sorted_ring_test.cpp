// dht::SortedRing — the one ordered membership index behind every ring
// overlay (dht/sorted_ring.hpp): a randomized model check against the
// std::map rings it replaced, wrap-around at both ends, singletons, the
// bulk append + settle() contract, and the traps that guard it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include "dht/sorted_ring.hpp"
#include "util/rng.hpp"

namespace cycloid::dht {
namespace {

using Ring = SortedRing<std::uint64_t>;
using Model = std::map<std::uint64_t, NodeHandle>;

// Reference answers, written exactly as the overlays' std::map rings
// computed them.
NodeHandle model_successor(const Model& m, std::uint64_t key) {
  const auto it = m.lower_bound(key);
  return it == m.end() ? m.begin()->second : it->second;
}
NodeHandle model_predecessor(const Model& m, std::uint64_t key) {
  const auto it = m.lower_bound(key);
  return it == m.begin() ? m.rbegin()->second : std::prev(it)->second;
}
NodeHandle model_predecessor_incl(const Model& m, std::uint64_t key) {
  const auto it = m.upper_bound(key);
  return it == m.begin() ? m.rbegin()->second : std::prev(it)->second;
}
NodeHandle model_nearest_in(const Model& m, std::uint64_t lo, std::uint64_t hi,
                            std::uint64_t target) {
  NodeHandle best = kNoNode;
  std::uint64_t best_gap = ~0ULL;
  for (auto it = m.lower_bound(lo); it != m.end() && it->first < hi; ++it) {
    const std::uint64_t gap =
        it->first >= target ? it->first - target : target - it->first;
    if (gap <= best_gap) {  // ascending walk: ties go to the larger key
      best_gap = gap;
      best = it->second;
    }
  }
  return best;
}

void expect_same_order(const Ring& ring, const Model& model) {
  ASSERT_EQ(ring.size(), model.size());
  std::size_t i = 0;
  for (const auto& [key, handle] : model) {
    ASSERT_EQ(ring.key(i), key) << "index " << i;
    ASSERT_EQ(ring.handle(i), handle) << "index " << i;
    ++i;
  }
}

TEST(SortedRing, ChurnAgreesWithReferenceModel) {
  // A long random insert/erase mix over a small key space (so the ring
  // hovers around half full and keeps hitting both ends), every query
  // compared with the std::map answer — including probes past the top key.
  Ring ring;
  Model model;
  util::Rng rng(0x50e7ed);
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t key = rng.below(1024);
    if (rng.chance(0.5)) {
      if (!model.contains(key)) {
        ring.insert(key, key * 7 + 1, /*bulk=*/false);
        model.emplace(key, key * 7 + 1);
      }
    } else if (model.contains(key)) {
      ring.erase(key);
      model.erase(key);
    }
    ASSERT_EQ(ring.size(), model.size()) << "op " << op;
    ASSERT_EQ(ring.contains(key), model.contains(key)) << "op " << op;
    if (model.empty()) continue;

    const std::uint64_t probe = rng.below(1100);
    ASSERT_EQ(ring.successor(probe), model_successor(model, probe))
        << "op " << op << " probe " << probe;
    ASSERT_EQ(ring.predecessor(probe), model_predecessor(model, probe))
        << "op " << op << " probe " << probe;
    ASSERT_EQ(ring.predecessor_incl(probe),
              model_predecessor_incl(model, probe))
        << "op " << op << " probe " << probe;
    ASSERT_EQ(ring.lower_bound(probe),
              static_cast<std::size_t>(std::distance(
                  model.begin(), model.lower_bound(probe))))
        << "op " << op;
    ASSERT_EQ(ring.upper_bound(probe),
              static_cast<std::size_t>(std::distance(
                  model.begin(), model.upper_bound(probe))))
        << "op " << op;

    const std::uint64_t lo = rng.below(1024);
    const std::uint64_t hi = lo + 1 + rng.below(64);
    const std::uint64_t target = lo + rng.below(hi - lo);
    ASSERT_EQ(ring.nearest_in(lo, hi, target),
              model_nearest_in(model, lo, hi, target))
        << "op " << op << " window [" << lo << ", " << hi << ") target "
        << target;
  }
  expect_same_order(ring, model);
}

TEST(SortedRing, WrapsAtBothEnds) {
  Ring ring;
  for (const std::uint64_t key : {10, 20, 30}) ring.insert(key, key + 100, false);

  EXPECT_EQ(ring.successor(0), 110u);
  EXPECT_EQ(ring.successor(20), 120u);
  EXPECT_EQ(ring.successor(30), 130u);
  EXPECT_EQ(ring.successor(31), 110u);  // past the top: wraps to the first

  EXPECT_EQ(ring.predecessor(5), 130u);   // below the bottom: wraps to last
  EXPECT_EQ(ring.predecessor(10), 130u);  // strictly before
  EXPECT_EQ(ring.predecessor(11), 110u);
  EXPECT_EQ(ring.predecessor(99), 130u);

  EXPECT_EQ(ring.predecessor_incl(9), 130u);
  EXPECT_EQ(ring.predecessor_incl(10), 110u);  // at-or-before
  EXPECT_EQ(ring.predecessor_incl(29), 120u);
  EXPECT_EQ(ring.predecessor_incl(99), 130u);

  EXPECT_EQ(ring.next(0), 1u);
  EXPECT_EQ(ring.next(2), 0u);
  EXPECT_EQ(ring.prev(0), 2u);
  EXPECT_EQ(ring.prev(3), 2u);  // prev(size()) is the last index
  EXPECT_EQ(ring.index_of(20), 1u);
  EXPECT_EQ(ring.handles(), (std::vector<NodeHandle>{110, 120, 130}));
}

TEST(SortedRing, SingletonAnswersItself) {
  Ring ring;
  ring.insert(42, 7, false);
  for (const std::uint64_t key : {0, 41, 42, 43, 1000}) {
    EXPECT_EQ(ring.successor(key), 7u) << key;
    EXPECT_EQ(ring.predecessor(key), 7u) << key;
    EXPECT_EQ(ring.predecessor_incl(key), 7u) << key;
  }
  EXPECT_EQ(ring.next(0), 0u);
  EXPECT_EQ(ring.prev(0), 0u);
  ring.erase(42);
  EXPECT_TRUE(ring.empty());
}

TEST(SortedRing, RealValuedKeys) {
  // Viceroy's unit ring.
  SortedRing<double> ring;
  ring.insert(0.75, 1, false);
  ring.insert(0.25, 2, false);
  EXPECT_EQ(ring.successor(0.5), 1u);
  EXPECT_EQ(ring.successor(0.8), 2u);
  EXPECT_EQ(ring.predecessor(0.25), 1u);
  EXPECT_EQ(ring.predecessor_incl(0.25), 2u);
}

// The branch-free search against std::lower_bound / std::upper_bound at
// every ring size up to 70, probing below, at, between and above every key,
// for the integer rings and Viceroy's real-valued one.
template <typename Key>
void expect_std_bounds(Key step) {
  SortedRing<Key> ring;
  std::vector<Key> keys;
  for (std::size_t n = 0; n <= 70; ++n) {
    for (std::size_t i = 0; i <= 2 * n + 2; ++i) {
      const Key probe = static_cast<Key>(i) * step / 2;
      EXPECT_EQ(ring.lower_bound(probe),
                static_cast<std::size_t>(
                    std::lower_bound(keys.begin(), keys.end(), probe) -
                    keys.begin()))
          << "size " << n << " probe " << probe;
      EXPECT_EQ(ring.upper_bound(probe),
                static_cast<std::size_t>(
                    std::upper_bound(keys.begin(), keys.end(), probe) -
                    keys.begin()))
          << "size " << n << " probe " << probe;
    }
    const Key key = static_cast<Key>(n + 1) * step;
    ring.insert(key, n, false);
    keys.push_back(key);
  }
}

TEST(SortedRing, SearchesMatchStdBoundsAtEverySize) {
  expect_std_bounds<std::uint64_t>(2);
  expect_std_bounds<double>(1.0 / 128);
}

TEST(SortedRing, BulkAppendThenSettleMatchesSortedInserts) {
  util::Rng rng(0xb01c);
  Ring bulk;
  Model model;
  std::vector<std::uint64_t> keys;
  while (keys.size() < 500) {
    const std::uint64_t key = rng.below(1ULL << 20);
    if (model.emplace(key, key ^ 0xabc).second) keys.push_back(key);
  }
  for (const std::uint64_t key : keys) bulk.insert(key, key ^ 0xabc, true);
  bulk.settle();
  expect_same_order(bulk, model);
  bulk.settle();  // idempotent
  expect_same_order(bulk, model);

  // Ascending appends (a complete build) never unsort the ring: it answers
  // queries with no settle at all.
  Ring ascending;
  for (std::uint64_t key = 0; key < 100; ++key) ascending.insert(key, key, true);
  EXPECT_EQ(ascending.successor(50), 50u);
}

TEST(SortedRingDeathTest, QueryWhileUnsortedTraps) {
  Ring ring;
  ring.insert(5, 1, true);
  ring.insert(3, 2, true);
  EXPECT_DEATH(ring.successor(4), "Precondition");
  EXPECT_DEATH(ring.predecessor(4), "Precondition");
  EXPECT_DEATH(ring.lower_bound(4), "Precondition");
  EXPECT_DEATH(ring.key(0), "Precondition");
  EXPECT_DEATH(ring.handles(), "Precondition");
  EXPECT_DEATH(ring.insert(9, 3, false), "Precondition");
  EXPECT_DEATH(ring.erase(5), "Precondition");
}

TEST(SortedRingDeathTest, DuplicateKeyAtSettleTraps) {
  // What replaces Viceroy's per-insert collision probe in bulk builds.
  Ring ring;
  ring.insert(5, 1, true);
  ring.insert(3, 2, true);
  ring.insert(5, 3, true);
  EXPECT_DEATH(ring.settle(), "Precondition");
}

TEST(SortedRingDeathTest, AbsentEraseDuplicateInsertAndEmptyQueryTrap) {
  Ring ring;
  ring.insert(5, 1, false);
  EXPECT_DEATH(ring.erase(6), "Precondition");
  EXPECT_DEATH(ring.index_of(6), "Precondition");
  EXPECT_DEATH(ring.insert(5, 2, false), "Precondition");
  Ring empty;
  EXPECT_DEATH(empty.successor(0), "Precondition");
  EXPECT_DEATH(empty.predecessor_incl(0), "Precondition");
}

}  // namespace
}  // namespace cycloid::dht
