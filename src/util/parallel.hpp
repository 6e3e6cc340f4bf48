// Minimal fork-join parallelism for the experiment drivers.
//
// Every cell of a paper experiment (one overlay at one parameter value) is
// an independent simulation with its own network and its own seeded RNG, so
// the drivers can fan cells out across threads without any shared state;
// results are written into pre-sized slots, keeping the output bit-identical
// to the sequential run regardless of scheduling.
#pragma once

#include <cstddef>
#include <type_traits>

namespace cycloid::util {

/// Number of worker threads to use by default (hardware concurrency,
/// at least 1).
int default_thread_count() noexcept;

namespace detail {

/// Type-erased worker-pool core behind parallel_for: runs
/// invoke(ctx, 0) .. invoke(ctx, count-1) across `threads` workers
/// (threads <= 1 runs inline), each index exactly once; the first exception
/// thrown by any invocation is rethrown on the caller's thread after all
/// workers join. Lives in the .cpp so the thread pool stays out of every
/// includer's translation unit.
void parallel_for_impl(std::size_t count, int threads,
                       void (*invoke)(void* ctx, std::size_t index),
                       void* ctx);

}  // namespace detail

/// Run fn(0) .. fn(count-1), distributing indices across `threads` workers
/// (threads <= 1 runs inline). Each index is executed exactly once. If any
/// invocation throws, the first exception is rethrown on the caller's
/// thread after all workers finish.
///
/// The template binds the callable directly (no std::function type erasure
/// on hot fan-outs; a std::function binds like any other callable); the
/// callable is shared by every worker, so it must be safe to invoke
/// concurrently.
template <typename Fn>
void parallel_for(std::size_t count, int threads, Fn&& fn) {
  using Callable = std::remove_reference_t<Fn>;
  detail::parallel_for_impl(
      count, threads,
      [](void* ctx, std::size_t index) {
        (*static_cast<Callable*>(ctx))(index);
      },
      const_cast<std::remove_const_t<Callable>*>(&fn));
}

}  // namespace cycloid::util
