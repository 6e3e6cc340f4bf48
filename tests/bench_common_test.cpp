// Tests for the shared bench-binary helpers: strict env-var parsing and the
// --json report writer.
#include "bench_common.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

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

class EnvU64Test : public ::testing::Test {
 protected:
  static constexpr const char* kVar = "CYCLOID_TEST_ENV_U64";
  void TearDown() override { ::unsetenv(kVar); }
  void set(const char* value) { ::setenv(kVar, value, 1); }
};

TEST_F(EnvU64Test, UnsetAndEmptyFallBack) {
  ::unsetenv(kVar);
  EXPECT_EQ(env_u64(kVar, 77), 77u);
  set("");
  EXPECT_EQ(env_u64(kVar, 77), 77u);
}

TEST_F(EnvU64Test, ValidValueWins) {
  set("2048");
  EXPECT_EQ(env_u64(kVar, 77), 2048u);
}

TEST_F(EnvU64Test, MalformedValuesFallBack) {
  for (const char* bad : {"junk", "10k", "3.5", "-1", " 8", "8 ", "0x20",
                          "99999999999999999999999999"}) {
    set(bad);
    EXPECT_EQ(env_u64(kVar, 77), 77u) << "value: '" << bad << "'";
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
  set("16");  // kMaxBenchInterleave itself is accepted
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
    ::testing::internal::GetCapturedStdout();
    EXPECT_TRUE(report.done());
    EXPECT_EQ(report.exit_code(), 0);
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

}  // namespace
}  // namespace cycloid::bench
