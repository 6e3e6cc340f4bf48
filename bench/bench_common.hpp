// Shared helpers for the per-figure bench binaries.
//
// Each binary regenerates one table or figure from the paper's evaluation
// (Sec. 4) and prints it as a fixed-width table. Absolute hop counts depend
// only on topology, so they are directly comparable to the paper; sample
// sizes are capped (CYCLOID_BENCH_LOOKUP_CAP) because the means converge
// long before the paper's full n^2/4 lookup workload.
//
// Every binary also understands `--json <path>` (see Report below): the same
// sections it prints as text are dumped as one JSON document, so plots and
// regression diffs do not have to scrape the fixed-width tables.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "exp/overlays.hpp"
#include "util/table.hpp"

namespace cycloid::bench {

/// Paper workload: every node issues n/4 lookups (n^2/4 total). Returns the
/// scale in (0, 1] that caps the total at `cap` lookups.
inline double lookup_scale_for(std::uint64_t n, std::uint64_t cap) {
  const double full = static_cast<double>(n) * static_cast<double>(n) / 4.0;
  return full <= static_cast<double>(cap)
             ? 1.0
             : static_cast<double>(cap) / full;
}

/// Strict base-10 parse of `value` into `out`. The whole string must be
/// digits (no sign, no whitespace, no trailing junk) and fit in 64 bits.
bool parse_u64(const char* value, std::uint64_t& out);

/// Env-var override (integer) with default; lets CI shrink or grow runs.
/// Unset, empty, or malformed values (trailing junk, signs, overflow) fall
/// back to the default instead of silently truncating to garbage.
inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  std::uint64_t parsed = 0;
  if (value == nullptr || !parse_u64(value, parsed)) return fallback;
  return parsed;
}

/// Default lookup cap per experiment cell.
inline std::uint64_t lookup_cap() {
  return env_u64("CYCLOID_BENCH_LOOKUP_CAP", 100000);
}

/// Upper bound accepted from CYCLOID_BENCH_THREADS. Values above this fit
/// in a u64 but are nonsense as worker counts (and would truncate when
/// narrowed to int), so they fall back like any other malformed value.
inline constexpr std::uint64_t kMaxBenchThreads = 4096;

/// Worker threads for parallel experiments (results are identical at any
/// thread count; see exp::run_lookup_batch / util::parallel_for). Override
/// with CYCLOID_BENCH_THREADS — strictly parsed (env_u64): garbage,
/// partial parses, zero, and counts beyond kMaxBenchThreads all fall back
/// to the hardware default instead of silently truncating.
int threads();

/// Upper bound accepted from CYCLOID_BENCH_INTERLEAVE — the engine's lane
/// cap (dht::Router::kMaxBatchWidth); wider requests could only queue.
inline constexpr std::uint64_t kMaxBenchInterleave = 16;

/// Interleave width for the lookup batches (results are identical at any
/// width; see exp::run_lookup_batch / dht::Router::route_batch). Override
/// with CYCLOID_BENCH_INTERLEAVE — strictly parsed exactly like
/// CYCLOID_BENCH_THREADS: garbage, partial parses, zero, and widths beyond
/// kMaxBenchInterleave all fall back to 1 (the sequential path) instead of
/// silently truncating. Report's constructor installs this value as the
/// process-wide exp::set_lookup_interleave default, so every bench binary
/// honors the knob.
int interleave();

/// Fixed seed: every bench prints identical tables run to run.
inline constexpr std::uint64_t kBenchSeed = 0xC1C101DULL;

/// Uniform output layer for the bench binaries.
///
/// Parses the shared command line (`--json <path>`, `--help`), echoes every
/// section to stdout exactly as before, and — when `--json` was given —
/// writes all sections as one JSON document on destruction. Numeric-looking
/// cells are emitted as JSON numbers, everything else as strings.
class Report {
 public:
  /// Parses argv and opens the `--json` path. When done() is true afterwards
  /// (help, a bad option, or a path that cannot be opened for writing), main
  /// should immediately return exit_code().
  Report(int argc, const char* const* argv, std::string program,
         std::string description);
  ~Report();

  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;

  bool done() const noexcept { return done_; }
  int exit_code() const noexcept { return exit_code_; }

  /// Print the banner + table to stdout and record them for the JSON dump.
  void section(const std::string& title, const util::Table& table);

  /// Record a section for the JSON dump only — nothing is printed, so the
  /// text output stays byte-identical while the JSON gains extra data
  /// (e.g. fig12's maintenance breakdown). No-op without `--json`.
  void json_section(const std::string& title, const util::Table& table);

  /// Print free-form text to stdout and record it under "notes".
  void note(const std::string& text);

  /// Append one "sample routes" section per overlay kind: per-hop engine
  /// traces (dht::RouterOptions::trace) of CYCLOID_BENCH_TRACE_ROUTES random
  /// lookups in the dense d = `cycloid_dim` network. Off by default
  /// (env var unset or 0), so the regular figure output stays byte-stable.
  void route_traces(const std::vector<exp::OverlayKind>& kinds,
                    int cycloid_dim);

 private:
  struct Section {
    std::string title;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
  };

  void record(const std::string& title, const util::Table& table);
  void write_json();

  std::string program_;
  std::string description_;
  std::string json_path_;
  std::ofstream json_file_;
  std::vector<Section> sections_;
  std::vector<std::string> notes_;
  bool done_ = false;
  int exit_code_ = 0;
};

}  // namespace cycloid::bench
