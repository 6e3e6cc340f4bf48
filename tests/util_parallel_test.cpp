// Tests for the fork-join helper the experiment drivers fan out with.
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "exp/experiments.hpp"

namespace cycloid::util {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4, 16}) {
    std::vector<std::atomic<int>> counts(257);
    for (auto& c : counts) c = 0;
    parallel_for(counts.size(), threads,
                 [&](std::size_t i) { ++counts[i]; });
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
  }
}

TEST(ParallelFor, ZeroCountIsANoOp) {
  parallel_for(0, 8, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ParallelFor, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> counts(3);
  for (auto& c : counts) c = 0;
  parallel_for(counts.size(), 64, [&](std::size_t i) { ++counts[i]; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelFor, AggregationMatchesSequential) {
  std::vector<std::uint64_t> values(1000);
  parallel_for(values.size(), 8,
               [&](std::size_t i) { values[i] = i * i; });
  std::uint64_t total = std::accumulate(values.begin(), values.end(), 0ULL);
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) expected += i * i;
  EXPECT_EQ(total, expected);
}

TEST(ParallelFor, FirstExceptionPropagates) {
  EXPECT_THROW(
      parallel_for(100, 4,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, TemplateOverloadBindsMoveOnlyCallables) {
  // std::function requires a copyable target, so binding a move-only
  // functor proves the call dispatches through the templated overload
  // (no type erasure) rather than converting to std::function.
  std::vector<std::atomic<int>> counts(64);
  for (auto& c : counts) c = 0;
  auto weight = std::make_unique<int>(1);
  auto fn = [&counts, w = std::move(weight)](std::size_t i) {
    counts[i] += *w;
  };
  static_assert(!std::is_copy_constructible_v<decltype(fn)>);
  parallel_for(counts.size(), 4, fn);
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelFor, ExceptionRethrownOnlyAfterAllWorkersJoin) {
  // The contract: workers keep draining indices after a throw — every
  // index still runs exactly once — and the first captured exception is
  // rethrown on the caller's thread once every worker has joined.
  std::vector<std::atomic<int>> counts(193);
  for (auto& c : counts) c = 0;
  try {
    parallel_for(counts.size(), 8, [&](std::size_t i) {
      ++counts[i];
      if (i % 37 == 3) throw std::runtime_error("idx=" + std::to_string(i));
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("idx=", 0), 0u) << e.what();
  }
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelFor, StdFunctionOverloadPropagatesExceptions) {
  // A std::function binds the template like any other callable; the
  // rethrow contract is identical.
  const std::function<void(std::size_t)> fn = [](std::size_t i) {
    if (i == 7) throw std::runtime_error("boom");
  };
  EXPECT_THROW(parallel_for(64, 4, fn), std::runtime_error);
  EXPECT_THROW(parallel_for(64, 1, fn), std::runtime_error);
}

TEST(ParallelFor, DefaultThreadCountIsPositive) {
  EXPECT_GE(default_thread_count(), 1);
}

TEST(ParallelDrivers, ResultsIdenticalToSequential) {
  // The experiment drivers must produce bit-identical rows regardless of
  // the thread count (each cell derives its own seed).
  using namespace cycloid::exp;
  const auto seq = run_dense_path_lengths(
      {OverlayKind::kCycloid7, OverlayKind::kChord}, {4, 5}, 0.2, 9, 1);
  const auto par = run_dense_path_lengths(
      {OverlayKind::kCycloid7, OverlayKind::kChord}, {4, 5}, 0.2, 9, 8);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].kind, par[i].kind);
    EXPECT_EQ(seq[i].dimension, par[i].dimension);
    EXPECT_EQ(seq[i].mean_path, par[i].mean_path);
    EXPECT_EQ(seq[i].lookups, par[i].lookups);
  }
}

TEST(ParallelDrivers, FailureExperimentIdenticalToSequential) {
  using namespace cycloid::exp;
  const auto seq = run_failure_experiment({OverlayKind::kKoorde}, 5,
                                          {0.2, 0.4}, 500, 10, 1);
  const auto par = run_failure_experiment({OverlayKind::kKoorde}, 5,
                                          {0.2, 0.4}, 500, 10, 4);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].mean_path, par[i].mean_path);
    EXPECT_EQ(seq[i].mean_timeouts, par[i].mean_timeouts);
    EXPECT_EQ(seq[i].failures, par[i].failures);
  }
}

}  // namespace
}  // namespace cycloid::util
