#include "util/parallel.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/contracts.hpp"

namespace cycloid::util {

int default_thread_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace detail {

void parallel_for_impl(std::size_t count, int threads,
                       void (*invoke)(void* ctx, std::size_t index),
                       void* ctx) {
  CYCLOID_EXPECTS(invoke != nullptr);
  if (count == 0) return;
  if (threads <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) invoke(ctx, i);
    return;
  }

  const auto workers = static_cast<std::size_t>(
      std::min<std::size_t>(static_cast<std::size_t>(threads), count));
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const auto work = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        invoke(ctx, i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace detail

}  // namespace cycloid::util
