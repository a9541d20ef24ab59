#include "util/string_util.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "util/env.h"
#include "util/logging.h"

namespace rudolf {
namespace {

TEST(Split, Basic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Split, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Split, NoSeparator) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(Split, EmptyInput) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim("nothing"), "nothing");
}

TEST(Trim, AllWhitespace) { EXPECT_EQ(Trim("   "), ""); }

TEST(StartsWith, Basic) {
  EXPECT_TRUE(StartsWith("rule time >= 5", "rule "));
  EXPECT_FALSE(StartsWith("rul", "rule"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(Join, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(ToLower, Basic) { EXPECT_EQ(ToLower("AbC123"), "abc123"); }

TEST(ParseInt64, Valid) {
  EXPECT_EQ(ParseInt64("42").ValueOrDie(), 42);
  EXPECT_EQ(ParseInt64("-17").ValueOrDie(), -17);
  EXPECT_EQ(ParseInt64("  8 ").ValueOrDie(), 8);
  EXPECT_EQ(ParseInt64("0").ValueOrDie(), 0);
}

TEST(ParseInt64, Invalid) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("abc").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
}

TEST(ParseDouble, Valid) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").ValueOrDie(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-0.25").ValueOrDie(), -0.25);
  EXPECT_DOUBLE_EQ(ParseDouble("1e3").ValueOrDie(), 1000.0);
}

TEST(ParseDouble, Invalid) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("x").ok());
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
}

TEST(FormatClock, Basic) {
  EXPECT_EQ(FormatClock(0), "00:00");
  EXPECT_EQ(FormatClock(18 * 60 + 5), "18:05");
  EXPECT_EQ(FormatClock(23 * 60 + 59), "23:59");
}

TEST(FormatClock, WrapsAcrossDays) {
  EXPECT_EQ(FormatClock(24 * 60 + 30), "00:30");
}

TEST(FormatClock, NegativeClampsToZero) { EXPECT_EQ(FormatClock(-5), "00:00"); }

TEST(ParseClock, Valid) {
  EXPECT_EQ(ParseClock("18:05").ValueOrDie(), 18 * 60 + 5);
  EXPECT_EQ(ParseClock("00:00").ValueOrDie(), 0);
  EXPECT_EQ(ParseClock("23:59").ValueOrDie(), 23 * 60 + 59);
  EXPECT_EQ(ParseClock(" 9:30 ").ValueOrDie(), 9 * 60 + 30);
}

TEST(ParseClock, Invalid) {
  EXPECT_FALSE(ParseClock("1805").ok());
  EXPECT_FALSE(ParseClock("24:00").ok());
  EXPECT_FALSE(ParseClock("12:60").ok());
  EXPECT_FALSE(ParseClock("-1:30").ok());
  EXPECT_FALSE(ParseClock("ab:cd").ok());
}

TEST(ParseClock, RoundTripsFormatClock) {
  for (int64_t m : {0, 59, 60, 719, 720, 1439}) {
    EXPECT_EQ(ParseClock(FormatClock(m)).ValueOrDie(), m);
  }
}

TEST(StringPrintf, Formats) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%.2f", 1.005), "1.00");
  EXPECT_EQ(StringPrintf("plain"), "plain");
}

TEST(StringPrintf, LongOutput) {
  std::string long_arg(500, 'a');
  EXPECT_EQ(StringPrintf("%s", long_arg.c_str()).size(), 500u);
}

TEST(EnvInt, AcceptsOnlyWholeIntegersInRange) {
  const char* kName = "RUDOLF_TEST_ENV_INT";
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);

  unsetenv(kName);
  EXPECT_EQ(EnvInt(kName, -5, 5), std::nullopt);
  setenv(kName, "5", 1);
  EXPECT_EQ(EnvInt(kName, -5, 5), 5);
  setenv(kName, "-5", 1);
  EXPECT_EQ(EnvInt(kName, -5, 5), -5);
  for (const char* bad : {"", "abc", "4x", "8abc", "6", "-6", "1.5",
                          "99999999999999999999"}) {
    setenv(kName, bad, 1);
    testing::internal::CaptureStderr();
    EXPECT_EQ(EnvInt(kName, -5, 5), std::nullopt) << kName << "=" << bad;
    std::string log = testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find(std::string(kName) + "=\"" + bad + "\""),
              std::string::npos)
        << log;
  }
  // A value already warned about is not logged again.
  testing::internal::CaptureStderr();
  EXPECT_EQ(EnvInt(kName, -5, 5), std::nullopt);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  unsetenv(kName);
  SetLogLevel(saved_level);
}

}  // namespace
}  // namespace rudolf
