// Software prefetch helper for the batch routing engine.
//
// The interleaved hop loop (dht::Router::route_batch) hides DRAM latency by
// issuing prefetches for the lane it will step *next rotation* while the
// current lane computes. Prefetching is a pure performance hint: it never
// faults, never changes observable state, and compiles to nothing on
// toolchains without __builtin_prefetch — so routing results are identical
// with and without it.
#pragma once

#include <cstddef>

namespace cycloid::util {

/// Cache-line granularity assumed by prefetch_lines. 64 bytes covers every
/// x86-64 and the common AArch64 parts; an over-estimate only costs extra
/// (harmless) prefetch instructions.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Upper bound on the span one prefetch_lines call walks. Routing-table
/// vectors are small (a handful of entries); the cap keeps a pathological
/// caller from turning a hint into a loop that costs more than the miss it
/// hides.
inline constexpr std::size_t kMaxPrefetchBytes = 8 * kCacheLineBytes;

/// Best-effort read prefetch of every cache line holding a byte of
/// [ptr, ptr + bytes) (clamped to kMaxPrefetchBytes): one prefetch per
/// kCacheLineBytes from `ptr`, plus one at the last byte, which reaches the
/// extra line of a span that straddles one more line boundary than
/// bytes / kCacheLineBytes. The count depends on `bytes` alone, so a
/// fixed-size hint compiles to straight-line prefetches; a walk from the
/// start of `ptr`'s line would loop a number of times that depends on the
/// address, and its exit branch would mispredict. Null pointers and zero
/// sizes are silent no-ops, so callers can pass vector.data()
/// unconditionally.
///
/// Always inlined: the body has no side effect the compiler must keep, so
/// GCC deletes an out-of-line call to it, and a hint would then emit no
/// instruction.
[[gnu::always_inline]] inline void prefetch_lines(const void* ptr,
                                                  std::size_t bytes) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  if (ptr == nullptr || bytes == 0) return;
  if (bytes > kMaxPrefetchBytes) bytes = kMaxPrefetchBytes;
  const char* const first = static_cast<const char*>(ptr);
  for (std::size_t at = 0; at < bytes; at += kCacheLineBytes) {
    __builtin_prefetch(first + at, /*rw=*/0, 3);
  }
  __builtin_prefetch(first + bytes - 1, /*rw=*/0, 3);
#else
  (void)ptr;
  (void)bytes;
#endif
}

}  // namespace cycloid::util
