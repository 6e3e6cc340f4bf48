#include "bench_common.hpp"

#include <cerrno>
#include <fstream>
#include <iostream>
#include <utility>

#include "dht/types.hpp"
#include "exp/workloads.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"

namespace cycloid::bench {

int threads() {
  const auto fallback =
      static_cast<std::uint64_t>(cycloid::util::default_thread_count());
  std::uint64_t value = env_u64("CYCLOID_BENCH_THREADS", fallback);
  // env_u64 already rejects garbage and 64-bit overflow; additionally
  // reject 0 (would serialize the pool) and counts that only "work" by
  // truncating in the narrowing cast below.
  if (value == 0 || value > kMaxBenchThreads) value = fallback;
  return static_cast<int>(value);
}

int interleave() {
  std::uint64_t value = env_u64("CYCLOID_BENCH_INTERLEAVE", 1);
  // env_u64 already rejects garbage and 64-bit overflow; additionally
  // reject 0 (no lanes is meaningless) and widths past the engine's lane
  // cap rather than silently clamping.
  if (value == 0 || value > kMaxBenchInterleave) value = 1;
  return static_cast<int>(value);
}

bool parse_u64(const char* value, std::uint64_t& out) {
  if (value == nullptr || *value < '0' || *value > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (errno == ERANGE || end == value || *end != '\0') return false;
  out = static_cast<std::uint64_t>(parsed);
  return true;
}

Report::Report(int argc, const char* const* argv, std::string program,
               std::string description)
    : program_(std::move(program)), description_(std::move(description)) {
  // Install the interleave knob process-wide so every lookup batch a bench
  // binary runs — figure drivers included — honors CYCLOID_BENCH_INTERLEAVE
  // (output is identical at every width; only throughput changes).
  exp::set_lookup_interleave(interleave());
  util::ArgParser parser(program_, description_);
  parser.add_option("json", "",
                    "also write all sections as a JSON document to this path");
  if (!parser.parse(argc, argv)) {
    done_ = true;
    if (parser.help_requested()) {
      std::cout << parser.help_text();
    } else {
      std::cerr << program_ << ": " << parser.error() << "\n"
                << parser.help_text();
      exit_code_ = 2;
    }
    return;
  }
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
  const std::uint64_t count = env_u64("CYCLOID_BENCH_TRACE_ROUTES", 0);
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
          .add(sample.latency(), 3)
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
