#include "util/text.h"

#include <gtest/gtest.h>

#include "util/cpu.h"
#include "util/thread_pool.h"

namespace repro::util {
namespace {

TEST(Text, Trim) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Text, ToLower) {
  EXPECT_EQ(to_lower("NaNd2"), "nand2");
}

TEST(Text, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Text, SplitEmptyString) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Text, FormatHelpers) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(0.0523, 1), "5.2");
}

TEST(Text, TableRendersAligned) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
}

TEST(Text, TableCsv) {
  TextTable t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.render_csv(), "a,b\n1,2\n");
}

TEST(Text, TableShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"only"});
  const std::string csv = t.render_csv();
  EXPECT_EQ(csv, "a,b,c\nonly,,\n");
}

TEST(Text, ParseUlongStrictAcceptsPlainDecimal) {
  EXPECT_EQ(parse_ulong_strict("0"), 0ul);
  EXPECT_EQ(parse_ulong_strict("8"), 8ul);
  EXPECT_EQ(parse_ulong_strict("00123"), 123ul);
  EXPECT_EQ(parse_ulong_strict("4294967296"), 4294967296ul);
}

TEST(Text, ParseUlongStrictRejectsPartialParses) {
  // strtoul would happily parse the prefix of every one of these; the
  // strict parser must reject the full string instead.
  EXPECT_FALSE(parse_ulong_strict("8x"));
  EXPECT_FALSE(parse_ulong_strict("4,8"));
  EXPECT_FALSE(parse_ulong_strict("8 "));
  EXPECT_FALSE(parse_ulong_strict(" 8"));
  EXPECT_FALSE(parse_ulong_strict("+8"));
  EXPECT_FALSE(parse_ulong_strict("-1"));
  EXPECT_FALSE(parse_ulong_strict("0x10"));
  EXPECT_FALSE(parse_ulong_strict("8.0"));
  EXPECT_FALSE(parse_ulong_strict(""));
  EXPECT_FALSE(parse_ulong_strict("99999999999999999999999"));  // overflow
}

TEST(Text, ParseDoubleStrictAcceptsNumbers) {
  EXPECT_DOUBLE_EQ(*parse_double_strict("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*parse_double_strict("-0.25"), -0.25);
  EXPECT_DOUBLE_EQ(*parse_double_strict("3"), 3.0);
  EXPECT_DOUBLE_EQ(*parse_double_strict("1e2"), 100.0);
  EXPECT_DOUBLE_EQ(*parse_double_strict("2.5E-1"), 0.25);
}

TEST(Text, ParseDoubleStrictRejectsPartialAndExotic) {
  EXPECT_FALSE(parse_double_strict("2.5GHz"));
  EXPECT_FALSE(parse_double_strict("2,5"));
  EXPECT_FALSE(parse_double_strict(" 2.5"));
  EXPECT_FALSE(parse_double_strict("2.5 "));
  EXPECT_FALSE(parse_double_strict(""));
  EXPECT_FALSE(parse_double_strict("nan"));
  EXPECT_FALSE(parse_double_strict("inf"));
  EXPECT_FALSE(parse_double_strict("-INFINITY"));
  EXPECT_FALSE(parse_double_strict("0x1p4"));
  EXPECT_FALSE(parse_double_strict("1e999"));  // overflow
}

TEST(Text, ThreadOverrideStrictness) {
  EXPECT_EQ(env_thread_override(nullptr), std::nullopt);
  EXPECT_EQ(env_thread_override("8"), 8u);
  EXPECT_EQ(env_thread_override("1"), 1u);
  // Malformed values fall back to auto-detection rather than silently
  // truncating ("8x" must not run with 8 threads).
  EXPECT_EQ(env_thread_override("8x"), std::nullopt);
  EXPECT_EQ(env_thread_override("4,8"), std::nullopt);
  EXPECT_EQ(env_thread_override("0"), std::nullopt);
  EXPECT_EQ(env_thread_override(""), std::nullopt);
  EXPECT_EQ(env_thread_override("9999"), 256u);  // clamped
}

TEST(Text, GhzOverrideStrictness) {
  EXPECT_EQ(env_ghz_override(nullptr), std::nullopt);
  EXPECT_DOUBLE_EQ(*env_ghz_override("3.5"), 3.5);
  EXPECT_EQ(env_ghz_override("3.5GHz"), std::nullopt);
  EXPECT_EQ(env_ghz_override("2,5"), std::nullopt);
  EXPECT_EQ(env_ghz_override("nan"), std::nullopt);
  EXPECT_EQ(env_ghz_override("0"), std::nullopt);      // below plausibility
  EXPECT_EQ(env_ghz_override("100"), std::nullopt);    // above plausibility
}

TEST(Text, ScaleModeDefaults) {
  // Without REPRO_FAST / REPRO_FULL the mode is 1 (default); with them set
  // the value changes.  We only check the default here to stay hermetic.
  unsetenv("REPRO_FAST");
  unsetenv("REPRO_FULL");
  EXPECT_EQ(repro_scale_mode(), 1);
  setenv("REPRO_FAST", "1", 1);
  EXPECT_EQ(repro_scale_mode(), 0);
  unsetenv("REPRO_FAST");
  setenv("REPRO_FULL", "1", 1);
  EXPECT_EQ(repro_scale_mode(), 2);
  unsetenv("REPRO_FULL");
}

}  // namespace
}  // namespace repro::util
