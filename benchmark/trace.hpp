// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark opens a span around every call it makes into a layer of
// the library (build, batch driver, router, oracle, maintainer). Spans nest
// by call order: the innermost open span is the parent of the next one.
// Spans stay in memory until the run ends; the per-layer metrics are
// derived from them, and write_chrome() dumps them as Chrome trace-event
// JSON (chrome://tracing, Perfetto). A disabled tracer records nothing and
// costs one branch per span, so untraced runs time the same code.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace bench {

class Tracer {
 public:
  static constexpr std::int32_t kNoParent = -1;

  struct Span {
    const char* name;       ///< layer-qualified call name ("router.route")
    std::int32_t overlay;   ///< index into the benchmark's overlay table
    std::int32_t parent;    ///< index of the enclosing span, or kNoParent
    std::uint64_t request;  ///< spans of one request share this id
    std::int64_t start_ns;  ///< since the tracer was created
    std::int64_t end_ns;
    std::uint64_t arg;  ///< work done inside the span (keys, hops, ...)

    double seconds() const {
      return static_cast<double>(end_ns - start_ns) * 1e-9;
    }
  };

  /// Closes the span it opened when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, int overlay,
          std::uint64_t request)
        : tracer_(tracer),
          index_(tracer.enabled ? tracer.open(name, overlay, request) : -1) {}
    ~Scope() {
      if (index_ >= 0) tracer_.close(index_, arg_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void set_arg(std::uint64_t arg) { arg_ = arg; }

   private:
    Tracer& tracer_;
    std::int32_t index_;
    std::uint64_t arg_ = 0;
  };

  bool enabled = false;

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the first `max_events` spans as Chrome trace-event JSON (the
  /// metrics always use every span). `categories[overlay]` names the
  /// overlay of each span. Returns false when the file cannot be written.
  bool write_chrome(const std::string& path,
                    const std::vector<std::string>& categories,
                    std::size_t max_events) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    const std::size_t count = std::min(spans_.size(), max_events);
    for (std::size_t i = 0; i < count; ++i) {
      const Span& s = spans_[i];
      const std::string& category =
          categories[static_cast<std::size_t>(s.overlay)];
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%llu,"
                   "\"arg\":%llu}}\n",
                   i == 0 ? "" : ",", s.name, category.c_str(),
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   s.parent, static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.arg));
    }
    std::fprintf(out, "],\"otherData\":{\"spans\":%zu,\"written\":%zu}}\n",
                 spans_.size(), count);
    return std::fclose(out) == 0;
  }

 private:
  std::int32_t open(const char* name, int overlay, std::uint64_t request) {
    const std::int32_t parent = stack_.empty() ? kNoParent : stack_.back();
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, overlay, parent, request, now_ns(), 0, 0});
    stack_.push_back(index);
    return index;
  }

  void close(std::int32_t index, std::uint64_t arg) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = now_ns();
    span.arg = arg;
    stack_.pop_back();
  }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

}  // namespace bench
