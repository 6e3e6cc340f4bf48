#include "bench_common.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string_view>
#include <utility>

#include "dht/router.hpp"
#include "dht/types.hpp"
#include "exp/workloads.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"

extern char** environ;  // POSIX: the process environment

namespace cycloid::bench {

bool parse_u64(const char* value, std::uint64_t& out) {
  if (value == nullptr || *value < '0' || *value > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (errno == ERANGE || end == value || *end != '\0') return false;
  out = static_cast<std::uint64_t>(parsed);
  return true;
}

std::optional<std::uint64_t> Setting::accept(const char* value) const {
  std::uint64_t parsed = 0;
  if (!parse_u64(value, parsed) || parsed < min || parsed > max) return {};
  return parsed;
}

std::span<const Setting> settings() {
  // Upper bound of every count and duration: no run is this large.
  constexpr std::uint64_t kMaxRun = 1'000'000'000;
  // One row per Knob, in enum order.
  static const std::array<Setting, 13> table{{
      {"CYCLOID_BENCH_LOOKUP_CAP", 100'000, 1, kMaxRun,
       "lookups per cell in fig5, fig6, fig7, fig10 and ext_related_dhts"},
      {"CYCLOID_BENCH_FAILURE_LOOKUPS", 10'000, 1, kMaxRun,
       "lookups per cell in fig11_failures and ext_ungraceful_failures"},
      {"CYCLOID_BENCH_PNS_LOOKUPS", 20'000, 1, kMaxRun,
       "lookups per cell in ext_proximity_selection"},
      {"CYCLOID_BENCH_TRACE_ROUTES", 0, 0, kMaxRun,
       "traced routes per overlay appended by fig5 and fig7 (0: none)"},
      {"CYCLOID_BENCH_CHURN_SECONDS", 3'000, 1, kMaxRun,
       "virtual seconds per cell in fig12_churn"},
      {"CYCLOID_BENCH_PNS_CHURN_SECONDS", 600, 1, kMaxRun,
       "virtual seconds per cell in ext_proximity_churn"},
      {"CYCLOID_BENCH_PERF_CHURN_SECONDS", 600, 1, kMaxRun,
       "virtual seconds per cell in perf_maintenance"},
      {"CYCLOID_BENCH_CHURN_INCREMENTAL", 0, 0, 1,
       "1: fig12_churn stabilizes by dirty-queue drains, not per-node timers"},
      {"CYCLOID_BENCH_MAINT_INCREMENTAL", 0, 0, 1,
       "1: ext_maintenance_cost ends on a dirty-queue drain, not a full pass"},
      {"CYCLOID_BENCH_PERF_MAX_NODES", 1 << 17, 1 << 11, kMaxRun,
       "largest n of 2^11, 2^14, 2^17 in perf_lookup_throughput, perf_build"},
      {"CYCLOID_BENCH_PERF_LOOKUPS", 32'768, 1, kMaxRun,
       "lookups per timed run in perf_lookup_throughput"},
      {"CYCLOID_BENCH_THREADS",
       static_cast<std::uint64_t>(util::default_thread_count()), 1, 4096,
       "worker threads (default: hardware threads)"},
      {"CYCLOID_BENCH_INTERLEAVE", 1, 1, dht::Router::kMaxBatchWidth,
       "lookups in flight per batch shard"},
  }};
  return table;
}

std::uint64_t setting(Knob knob) {
  const Setting& row = settings()[static_cast<std::size_t>(knob)];
  return row.accept(std::getenv(row.name)).value_or(row.fallback);
}

std::vector<PerfSize> perf_sizes() {
  std::vector<PerfSize> sizes;
  for (const std::uint64_t n : {1ULL << 11, 1ULL << 14, 1ULL << 17}) {
    if (n > setting(Knob::kPerfMaxNodes)) break;
    int dim = 3;
    while (static_cast<std::uint64_t>(dim) * (1ULL << dim) < n) ++dim;
    sizes.push_back({n, dim});
  }
  return sizes;
}

Report::Report(int argc, const char* const* argv, std::string program,
               std::string description)
    : program_(std::move(program)), description_(std::move(description)) {
  util::ArgParser parser(program_, description_);
  parser.add_option("json", "",
                    "also write all sections as a JSON document to this path");
  std::string error = parser.parse(argc, argv) ? "" : parser.error();
  // A misspelt setting fails like a bad option, before any work.
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view name(*entry, std::strcspn(*entry, "="));
    if (!name.starts_with("CYCLOID_BENCH_")) continue;
    const auto rows = settings();
    const auto row = std::ranges::find(rows, name, &Setting::name);
    if (row == rows.end()) {
      error = "unknown environment variable " + std::string(name);
    } else if (const char* value = std::getenv(row->name);
               !row->accept(value)) {
      std::cerr << program_ << ": ignoring " << name << "='" << value
                << "', not in [" << row->min << ", " << row->max
                << "]; using the default " << row->fallback << "\n";
    }
  }
  if (parser.help_requested() || !error.empty()) {
    done_ = true;
    std::string help = parser.help_text() +
                       "\nenvironment (a malformed or out-of-range value "
                       "falls back to the default):\n";
    for (const Setting& row : settings()) {
      help += "  " + std::string(row.name) + " in [" +
              std::to_string(row.min) + ", " + std::to_string(row.max) +
              "], default " + std::to_string(row.fallback) + "\n      " +
              row.doc + "\n";
    }
    if (parser.help_requested()) {
      std::cout << help;
    } else {
      std::cerr << program_ << ": " << error << "\n" << help;
      exit_code_ = 2;
    }
    return;
  }
  exp::set_lookup_interleave(interleave());
  json_path_ = parser.get("json");
  if (json_path_.empty()) return;
  // Open the path before the run, so an unwritable path fails fast — with
  // the same exit code as a bad option — instead of after the whole run.
  json_file_.open(json_path_);
  if (!json_file_) {
    std::cerr << program_ << ": cannot open --json path '" << json_path_
              << "'\n";
    done_ = true;
    exit_code_ = 2;
  }
}

Report::~Report() {
  if (!done_ && json_file_.is_open()) write_json();
}

void Report::section(const std::string& title, const util::Table& table) {
  util::print_banner(std::cout, title);
  std::cout << table;
  record(title, table);
}

void Report::json_section(const std::string& title, const util::Table& table) {
  if (json_path_.empty()) return;
  record(title, table);
}

void Report::record(const std::string& title, const util::Table& table) {
  Section section;
  section.title = title;
  for (std::size_t c = 0; c < table.column_count(); ++c) {
    section.columns.push_back(table.header(c));
  }
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    std::vector<std::string> row;
    for (std::size_t c = 0; c < table.column_count(); ++c) {
      row.push_back(table.cell(r, c));
    }
    section.rows.push_back(std::move(row));
  }
  sections_.push_back(std::move(section));
}

void Report::note(const std::string& text) {
  std::cout << text;
  notes_.push_back(text);
}

namespace {

const char* status_label(dht::LookupStatus status) {
  switch (status) {
    case dht::LookupStatus::kDelivered: return "delivered";
    case dht::LookupStatus::kFailed: return "failed";
    case dht::LookupStatus::kHopLimit: return "hop-limit";
  }
  return "?";
}

}  // namespace

void Report::route_traces(const std::vector<exp::OverlayKind>& kinds,
                          int cycloid_dim) {
  const std::uint64_t count = setting(Knob::kTraceRoutes);
  if (count == 0) return;
  for (const exp::OverlayKind kind : kinds) {
    const auto net = exp::make_dense_overlay(kind, cycloid_dim, kBenchSeed);
    const auto samples = exp::sample_routes(*net, count, kBenchSeed + 99);
    util::Table table(
        {"source", "hops", "timeouts", "status", "latency", "route"});
    for (const exp::RouteSample& sample : samples) {
      std::string route = std::to_string(sample.source);
      for (const dht::TraceStep& step : sample.trace) {
        route += " -";
        route += step.link;
        route += "-> ";
        route += std::to_string(step.node);
      }
      table.row()
          .add(sample.source)
          .add(sample.result.hops)
          .add(sample.result.timeouts)
          .add(status_label(sample.result.status))
          .add(sample.result.route_latency, 3)
          .add(route);
    }
    section("Sample routes: " + exp::overlay_label(kind) + " (dense, d=" +
                std::to_string(cycloid_dim) + ")",
            table);
  }
}

namespace {

void append_json_string(std::string& out, const std::string& value) {
  out += '"';
  for (const char ch : value) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(ch >> 4) & 0xF];
          out += kHex[ch & 0xF];
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

/// Cells hold the strings the table printed; re-emit the numeric ones as
/// JSON numbers so consumers do not have to parse twice.
void append_json_cell(std::string& out, const std::string& value) {
  if (!value.empty()) {
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    (void)parsed;
    if (errno == 0 && end == value.c_str() + value.size()) {
      out += value;
      return;
    }
  }
  append_json_string(out, value);
}

}  // namespace

void Report::write_json() {
  std::string out = "{\n  \"program\": ";
  append_json_string(out, program_);
  out += ",\n  \"description\": ";
  append_json_string(out, description_);
  out += ",\n  \"sections\": [";
  for (std::size_t s = 0; s < sections_.size(); ++s) {
    const Section& section = sections_[s];
    out += s == 0 ? "\n" : ",\n";
    out += "    {\"title\": ";
    append_json_string(out, section.title);
    out += ", \"columns\": [";
    for (std::size_t c = 0; c < section.columns.size(); ++c) {
      if (c != 0) out += ", ";
      append_json_string(out, section.columns[c]);
    }
    out += "],\n     \"rows\": [";
    for (std::size_t r = 0; r < section.rows.size(); ++r) {
      out += r == 0 ? "\n" : ",\n";
      out += "       [";
      for (std::size_t c = 0; c < section.rows[r].size(); ++c) {
        if (c != 0) out += ", ";
        append_json_cell(out, section.rows[r][c]);
      }
      out += "]";
    }
    out += "\n     ]}";
  }
  out += "\n  ],\n  \"notes\": [";
  for (std::size_t n = 0; n < notes_.size(); ++n) {
    if (n != 0) out += ", ";
    append_json_string(out, notes_[n]);
  }
  out += "]\n}\n";
  json_file_ << out;
}

}  // namespace cycloid::bench
