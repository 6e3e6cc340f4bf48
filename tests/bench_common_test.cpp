// Tests for the shared bench-binary helpers: the settings table and its
// strict env-var parsing, and the --json report writer.
#include "bench_common.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "util/table.hpp"

namespace cycloid::bench {
namespace {

TEST(ParseU64, AcceptsPlainDecimal) {
  std::uint64_t out = 0;
  EXPECT_TRUE(parse_u64("0", out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(parse_u64("123456789", out));
  EXPECT_EQ(out, 123456789u);
  EXPECT_TRUE(parse_u64("18446744073709551615", out));  // 2^64 - 1
  EXPECT_EQ(out, 18446744073709551615ULL);
}

TEST(ParseU64, RejectsGarbage) {
  std::uint64_t out = 42;
  EXPECT_FALSE(parse_u64(nullptr, out));
  EXPECT_FALSE(parse_u64("", out));
  EXPECT_FALSE(parse_u64("abc", out));
  EXPECT_FALSE(parse_u64("12abc", out));      // trailing junk
  EXPECT_FALSE(parse_u64("12 ", out));        // trailing space
  EXPECT_FALSE(parse_u64(" 12", out));        // leading space
  EXPECT_FALSE(parse_u64("-5", out));         // strtoull would wrap this
  EXPECT_FALSE(parse_u64("+5", out));
  EXPECT_FALSE(parse_u64("0x10", out));       // no hex
  EXPECT_FALSE(parse_u64("1e6", out));
  EXPECT_FALSE(parse_u64("18446744073709551616", out));  // 2^64: overflow
  EXPECT_EQ(out, 42u) << "failed parses must not clobber the output";
}

const Setting& row(Knob knob) {
  return settings()[static_cast<std::size_t>(knob)];
}

TEST(Settings, ThirteenUniquePrefixedNamesOnePerKnob) {
  // The names are the interface: scripts, CI and docs set them.
  const std::pair<Knob, const char*> expected[] = {
      {Knob::kLookupCap, "CYCLOID_BENCH_LOOKUP_CAP"},
      {Knob::kFailureLookups, "CYCLOID_BENCH_FAILURE_LOOKUPS"},
      {Knob::kPnsLookups, "CYCLOID_BENCH_PNS_LOOKUPS"},
      {Knob::kTraceRoutes, "CYCLOID_BENCH_TRACE_ROUTES"},
      {Knob::kChurnSeconds, "CYCLOID_BENCH_CHURN_SECONDS"},
      {Knob::kPnsChurnSeconds, "CYCLOID_BENCH_PNS_CHURN_SECONDS"},
      {Knob::kPerfChurnSeconds, "CYCLOID_BENCH_PERF_CHURN_SECONDS"},
      {Knob::kChurnIncremental, "CYCLOID_BENCH_CHURN_INCREMENTAL"},
      {Knob::kMaintIncremental, "CYCLOID_BENCH_MAINT_INCREMENTAL"},
      {Knob::kPerfMaxNodes, "CYCLOID_BENCH_PERF_MAX_NODES"},
      {Knob::kPerfLookups, "CYCLOID_BENCH_PERF_LOOKUPS"},
      {Knob::kThreads, "CYCLOID_BENCH_THREADS"},
      {Knob::kInterleave, "CYCLOID_BENCH_INTERLEAVE"}};
  ASSERT_EQ(settings().size(), std::size(expected));
  for (const auto& [knob, name] : expected) {
    EXPECT_STREQ(row(knob).name, name);
  }
  std::set<std::string_view> names;
  for (const Setting& setting : settings()) {
    const std::string_view name = setting.name;
    EXPECT_TRUE(name.starts_with("CYCLOID_BENCH_")) << name;
    EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
    EXPECT_NE(std::string_view(setting.doc), "") << name;
  }
}

TEST(Settings, DefaultsLieWithinBounds) {
  for (const Setting& setting : settings()) {
    EXPECT_LE(setting.min, setting.fallback) << setting.name;
    EXPECT_LE(setting.fallback, setting.max) << setting.name;
    EXPECT_EQ(setting.accept(std::to_string(setting.fallback).c_str()),
              setting.fallback)
        << setting.name;
  }
}

// Strict parsing of one row's variable, CYCLOID_BENCH_FAILURE_LOOKUPS.
class EnvU64Test : public ::testing::Test {
 protected:
  static constexpr const char* kVar = "CYCLOID_BENCH_FAILURE_LOOKUPS";
  static std::uint64_t value() { return setting(Knob::kFailureLookups); }
  static std::uint64_t fallback() {
    return row(Knob::kFailureLookups).fallback;
  }
  void TearDown() override { ::unsetenv(kVar); }
  void set(const char* value) { ::setenv(kVar, value, 1); }
};

TEST_F(EnvU64Test, UnsetAndEmptyFallBack) {
  ::unsetenv(kVar);
  EXPECT_EQ(value(), fallback());
  EXPECT_EQ(fallback(), 10000u);
  set("");
  EXPECT_EQ(value(), fallback());
}

TEST_F(EnvU64Test, ValidValueWins) {
  set("2048");
  EXPECT_EQ(value(), 2048u);
}

TEST_F(EnvU64Test, MalformedValuesFallBack) {
  for (const char* bad : {"junk", "10k", "3.5", "-1", " 8", "8 ", "0x20",
                          "99999999999999999999999999"}) {
    set(bad);
    EXPECT_EQ(value(), fallback()) << "value: '" << bad << "'";
  }
}

TEST(Settings, ZeroLookupCountFallsBackToTheDefault) {
  // A zero count would leave an experiment's sample empty, which traps.
  for (const Knob knob : {Knob::kLookupCap, Knob::kFailureLookups,
                          Knob::kPnsLookups, Knob::kPerfLookups}) {
    ::setenv(row(knob).name, "0", 1);
    EXPECT_EQ(setting(knob), row(knob).fallback) << row(knob).name;
    ::setenv(row(knob).name, "1", 1);
    EXPECT_EQ(setting(knob), 1u) << row(knob).name;
    ::unsetenv(row(knob).name);
  }
}

class BenchThreadsTest : public ::testing::Test {
 protected:
  static constexpr const char* kVar = "CYCLOID_BENCH_THREADS";
  void TearDown() override { ::unsetenv(kVar); }
  void set(const char* value) { ::setenv(kVar, value, 1); }
};

TEST_F(BenchThreadsTest, UnsetUsesHardwareDefault) {
  ::unsetenv(kVar);
  EXPECT_GE(threads(), 1);
}

TEST_F(BenchThreadsTest, ValidValueWins) {
  set("3");
  EXPECT_EQ(threads(), 3);
  set("1");
  EXPECT_EQ(threads(), 1);
}

TEST_F(BenchThreadsTest, GarbageZeroAndOversizeFallBack) {
  ::unsetenv(kVar);
  const int fallback = threads();
  for (const char* bad : {"junk", "4t", "-2", "+2", "3.5", "", " 4", "0",
                          "4294967296",            // u64-valid, absurd count
                          "18446744073709551616"}) {  // 2^64: overflow
    set(bad);
    EXPECT_EQ(threads(), fallback) << "value: '" << bad << "'";
  }
}

class BenchInterleaveTest : public ::testing::Test {
 protected:
  static constexpr const char* kVar = "CYCLOID_BENCH_INTERLEAVE";
  void TearDown() override { ::unsetenv(kVar); }
  void set(const char* value) { ::setenv(kVar, value, 1); }
};

TEST_F(BenchInterleaveTest, UnsetDefaultsToSequential) {
  ::unsetenv(kVar);
  EXPECT_EQ(interleave(), 1);
}

TEST_F(BenchInterleaveTest, ValidWidthWins) {
  set("4");
  EXPECT_EQ(interleave(), 4);
  set("16");  // dht::Router::kMaxBatchWidth itself is accepted
  EXPECT_EQ(interleave(), 16);
  set("1");
  EXPECT_EQ(interleave(), 1);
}

TEST_F(BenchInterleaveTest, GarbageZeroAndOversizeFallBackToSequential) {
  // Mirrors CYCLOID_BENCH_THREADS hardening: strict parse, then reject 0
  // (no lanes is meaningless) and widths past the engine's lane cap.
  for (const char* bad : {"junk", "4w", "-2", "+2", "3.5", "", " 4", "0",
                          "17",                    // just past the lane cap
                          "4294967296",            // u64-valid, absurd width
                          "18446744073709551616"}) {  // 2^64: overflow
    set(bad);
    EXPECT_EQ(interleave(), 1) << "value: '" << bad << "'";
  }
}

TEST(Report, WritesSectionsAsJson) {
  const std::string path = ::testing::TempDir() + "bench_report_test.json";
  const char* argv[] = {"bench_report_test", "--json", path.c_str()};
  {
    Report report(3, argv, "bench_report_test", "report writer test");
    ASSERT_FALSE(report.done());

    util::Table table({"n", "label", "mean"});
    table.row().add(std::uint64_t{24}).add("a \"quoted\" cell").add(2.35, 2);
    table.row().add(std::uint64_t{64}).add("plain").add(3.6, 2);

    ::testing::internal::CaptureStdout();
    report.section("sample section", table);
    report.note("\ntrailing note\n");
    const std::string text = ::testing::internal::GetCapturedStdout();
    EXPECT_NE(text.find("== sample section =="), std::string::npos);
    EXPECT_NE(text.find("trailing note"), std::string::npos);
  }  // destructor writes the file

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"program\": \"bench_report_test\""),
            std::string::npos);
  EXPECT_NE(json.find("\"title\": \"sample section\""), std::string::npos);
  EXPECT_NE(json.find("\"columns\": [\"n\", \"label\", \"mean\"]"),
            std::string::npos);
  // Numeric cells are raw JSON numbers; strings are escaped.
  EXPECT_NE(json.find("[24, \"a \\\"quoted\\\" cell\", 2.35]"),
            std::string::npos);
  EXPECT_NE(json.find("\\ntrailing note\\n"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Report, HelpAndUnknownOptionFinishEarly) {
  {
    const char* argv[] = {"prog", "--help"};
    ::testing::internal::CaptureStdout();
    Report report(2, argv, "prog", "help test");
    const std::string help = ::testing::internal::GetCapturedStdout();
    EXPECT_TRUE(report.done());
    EXPECT_EQ(report.exit_code(), 0);
    for (const Setting& setting : settings()) {
      EXPECT_NE(help.find(setting.name), std::string::npos) << setting.name;
    }
  }
  {
    const char* argv[] = {"prog", "--bogus"};
    ::testing::internal::CaptureStderr();
    Report report(2, argv, "prog", "error test");
    ::testing::internal::GetCapturedStderr();
    EXPECT_TRUE(report.done());
    EXPECT_NE(report.exit_code(), 0);
  }
}

TEST(Report, UnwritableJsonPathFailsBeforeTheRun) {
  // The path is opened by the constructor, so main returns before doing
  // any work, with the bad-option exit code.
  const std::string path = ::testing::TempDir() + "no-such-dir/out.json";
  const char* argv[] = {"prog", "--json", path.c_str()};
  ::testing::internal::CaptureStderr();
  Report report(3, argv, "prog", "unwritable path test");
  const std::string error = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(report.done());
  EXPECT_EQ(report.exit_code(), 2);
  EXPECT_NE(error.find("cannot open --json path"), std::string::npos);
}

TEST(Report, UnknownBenchVariableFinishesEarlyWithExitCode2) {
  const std::string path = ::testing::TempDir() + "unknown_setting.json";
  std::remove(path.c_str());
  const char* argv[] = {"prog", "--json", path.c_str()};
  ::setenv("CYCLOID_BENCH_INTERLEAV", "8", 1);
  ::testing::internal::CaptureStderr();
  {
    Report report(3, argv, "prog", "unknown setting test");
    EXPECT_TRUE(report.done());
    EXPECT_EQ(report.exit_code(), 2);
  }
  const std::string error = ::testing::internal::GetCapturedStderr();
  ::unsetenv("CYCLOID_BENCH_INTERLEAV");
  EXPECT_NE(error.find("unknown environment variable CYCLOID_BENCH_INTERLEAV"),
            std::string::npos)
      << error;
  EXPECT_FALSE(std::ifstream(path).good()) << "no --json file is written";
}

TEST(Report, RejectedValueFallsBackWithOneNote) {
  const char* argv[] = {"prog"};
  ::setenv("CYCLOID_BENCH_FAILURE_LOOKUPS", "0", 1);
  ::testing::internal::CaptureStderr();
  {
    Report report(1, argv, "prog", "rejected value test");
    EXPECT_FALSE(report.done());
  }
  const std::string error = ::testing::internal::GetCapturedStderr();
  ::unsetenv("CYCLOID_BENCH_FAILURE_LOOKUPS");
  EXPECT_NE(error.find("CYCLOID_BENCH_FAILURE_LOOKUPS='0'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("using the default 10000"), std::string::npos)
      << error;
  EXPECT_EQ(std::count(error.begin(), error.end(), '\n'), 1) << error;
}

TEST(Report, OtherVariablesAreIgnored) {
  const char* argv[] = {"prog"};
  for (const char* name : {"CYCLOID_TEST_ENV_U64", "CYCLOID_BENCH",
                           "CYCLOID_BENCHMARK_RUNS", "NOT_CYCLOID_BENCH_X"}) {
    ::setenv(name, "junk", 1);
  }
  ::testing::internal::CaptureStderr();
  {
    Report report(1, argv, "prog", "ignored variables test");
    EXPECT_FALSE(report.done());
  }
  const std::string error = ::testing::internal::GetCapturedStderr();
  for (const char* name : {"CYCLOID_TEST_ENV_U64", "CYCLOID_BENCH",
                           "CYCLOID_BENCHMARK_RUNS", "NOT_CYCLOID_BENCH_X"}) {
    ::unsetenv(name);
  }
  EXPECT_EQ(error, "");
}

}  // namespace
}  // namespace cycloid::bench
