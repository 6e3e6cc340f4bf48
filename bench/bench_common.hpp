// Shared helpers for the per-figure bench binaries.
//
// Each binary regenerates one table or figure from the paper's evaluation
// (Sec. 4) and prints it as a fixed-width table. Absolute hop counts depend
// only on topology, so they are directly comparable to the paper; sample
// sizes are capped (Knob::kLookupCap) because the means converge long
// before the paper's full n^2/4 lookup workload. Run sizes come from the
// CYCLOID_BENCH_* environment variables in settings(); `--help` lists them.
//
// Every binary also understands `--json <path>` (see Report below): the same
// sections it prints as text are dumped as one JSON document, so plots and
// regression diffs do not have to scrape the fixed-width tables.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "exp/overlays.hpp"
#include "util/table.hpp"

namespace cycloid::bench {

/// Strict base-10 parse of `value` into `out`. The whole string must be
/// digits (no sign, no whitespace, no trailing junk) and fit in 64 bits.
bool parse_u64(const char* value, std::uint64_t& out);

/// The CYCLOID_BENCH_* settings, one row each in settings(), in this order.
enum class Knob {
  kLookupCap, kFailureLookups, kPnsLookups, kTraceRoutes, kChurnSeconds,
  kPnsChurnSeconds, kPerfChurnSeconds, kChurnIncremental, kMaintIncremental,
  kPerfMaxNodes, kPerfLookups, kThreads, kInterleave
};

/// One row of the settings table: an environment variable, its default,
/// the inclusive range a set value must lie in, and a one-line doc.
struct Setting {
  const char* name;
  std::uint64_t fallback, min, max;
  const char* doc;

  /// `value` parsed strictly (parse_u64), when it lies in [min, max].
  std::optional<std::uint64_t> accept(const char* value) const;
};

/// Every CYCLOID_BENCH_* variable the bench binaries read.
std::span<const Setting> settings();

/// The value of `knob`: its variable when the row accepts it, else the
/// default. Quiet: Report's constructor names each rejected value once.
std::uint64_t setting(Knob knob);

/// setting(Knob::kThreads) and setting(Knob::kInterleave) as ints; Report
/// installs the width as exp's lookup interleave default. Results are
/// identical at any thread count and width.
inline int threads() { return static_cast<int>(setting(Knob::kThreads)); }
inline int interleave() {
  return static_cast<int>(setting(Knob::kInterleave));
}

/// Wall-clock seconds since `start`: the perf benches' timer.
inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// A perf-bench network size: n, and the smallest Cycloid dimension whose
/// d * 2^d identifier space holds n (the sparse factories size from it).
struct PerfSize {
  std::uint64_t n;
  int dim;
};

/// n in {2^11, 2^14, 2^17}, up to setting(Knob::kPerfMaxNodes).
std::vector<PerfSize> perf_sizes();

/// Paper workload: every node issues n/4 lookups (n^2/4 total). Returns the
/// scale in (0, 1] that caps the total at setting(Knob::kLookupCap).
inline double lookup_scale_for(std::uint64_t n) {
  const double full = static_cast<double>(n) * static_cast<double>(n) / 4.0;
  const auto cap = static_cast<double>(setting(Knob::kLookupCap));
  return full <= cap ? 1.0 : cap / full;
}

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
  /// Parses argv, checks the CYCLOID_BENCH_* environment and opens the
  /// `--json` path. When done() is true afterwards (help, a bad option, an
  /// unknown CYCLOID_BENCH_* variable, or a path that cannot be opened for
  /// writing), main should immediately return exit_code().
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
  /// traces (dht::RouterOptions::trace) of Knob::kTraceRoutes random
  /// lookups in the dense d = `cycloid_dim` network. Nothing is appended at
  /// 0, so the regular figure output stays byte-stable.
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
