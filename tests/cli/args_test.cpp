#include "cli/args.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace bb::cli {
namespace {

Args ParseVec(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "backbuster");
  return Args::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgsTest, ParsesCommand) {
  const Args a = ParseVec({"simulate"});
  EXPECT_EQ(a.command(), "simulate");
  EXPECT_TRUE(a.errors().empty());
}

TEST(ArgsTest, NoCommandIsEmpty) {
  const Args a = ParseVec({"--out", "x.bbv"});
  EXPECT_EQ(a.command(), "");
  EXPECT_EQ(a.Get("out", ""), "x.bbv");
}

TEST(ArgsTest, KeyValuePairsBothSyntaxes) {
  const Args a = ParseVec({"attack", "--in", "call.bbv", "--phi=6.5"});
  EXPECT_EQ(a.Get("in", ""), "call.bbv");
  EXPECT_DOUBLE_EQ(a.GetDouble("phi", 0.0), 6.5);
}

TEST(ArgsTest, BooleanFlags) {
  const Args a = ParseVec({"simulate", "--dynamic", "--out", "x"});
  EXPECT_TRUE(a.Has("dynamic"));
  EXPECT_FALSE(a.Has("static"));
  EXPECT_EQ(a.Get("out", ""), "x");
}

TEST(ArgsTest, TrailingFlagIsBoolean) {
  const Args a = ParseVec({"simulate", "--verbose"});
  EXPECT_TRUE(a.Has("verbose"));
}

TEST(ArgsTest, TypedAccessorsRejectGarbage) {
  const Args a = ParseVec({"x", "--n", "12", "--bad", "twelve", "--phi",
                           "abc", "--huge", "99999999999999999999"});
  EXPECT_EQ(a.GetInt("n"), 12);
  EXPECT_FALSE(a.GetInt("missing").has_value());
  EXPECT_EQ(a.GetInt("missing", 7), 7);
  EXPECT_TRUE(a.errors().empty());

  EXPECT_FALSE(a.GetInt("bad").has_value());
  // A present but malformed value reads as the fallback and is recorded -
  // once, however often it is read - so the caller's option check fails.
  EXPECT_DOUBLE_EQ(a.GetDouble("phi", 4.0), 4.0);
  EXPECT_DOUBLE_EQ(a.GetDouble("phi", 4.0), 4.0);
  EXPECT_FALSE(a.GetInt("huge").has_value());  // out of range for long
  ASSERT_EQ(a.errors().size(), 3u);
  EXPECT_NE(a.errors()[0].find("--bad"), std::string::npos);
  EXPECT_NE(a.errors()[1].find("--phi"), std::string::npos);
  EXPECT_NE(a.errors()[1].find("abc"), std::string::npos);
  EXPECT_NE(a.errors()[2].find("--huge"), std::string::npos);
  EXPECT_TRUE(a.UnconsumedKeys().empty());
}

TEST(ArgsTest, RejectBadOptionsCoversMalformedValuesAndUnknownKeys) {
  const Args good = ParseVec({"x", "--n", "-3", "--phi", "6.5"});
  EXPECT_EQ(good.GetInt("n", 0), -3);
  EXPECT_DOUBLE_EQ(good.GetDouble("phi", 0.0), 6.5);
  EXPECT_EQ(good.RejectBadOptions(), 0);

  const Args malformed = ParseVec({"x", "--n", "3x"});
  EXPECT_EQ(malformed.GetInt("n", 0), 0);
  EXPECT_EQ(malformed.RejectBadOptions(), 2);

  const Args unknown = ParseVec({"x", "--typo", "1"});
  EXPECT_EQ(unknown.RejectBadOptions(), 2);
}

TEST(ArgsTest, MalformedTokensAreErrors) {
  const Args a = ParseVec({"x", "-single", "ok"});
  EXPECT_FALSE(a.errors().empty());
}

TEST(ArgsTest, UnconsumedKeysTracksTypos) {
  const Args a = ParseVec({"x", "--good", "1", "--typo", "2"});
  (void)a.Get("good");
  const auto leftover = a.UnconsumedKeys();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "typo");
}

TEST(ArgsTest, EqualsSyntaxWithEmptyValue) {
  const Args a = ParseVec({"x", "--name="});
  EXPECT_TRUE(a.Has("name"));
  EXPECT_EQ(a.Get("name", "zz"), "");
}

TEST(ArgsTest, HasMarksKeyConsumed) {
  // Regression: Has() used to leave the key unconsumed, so flags probed
  // only via Has() (e.g. backbuster's --dynamic) were later rejected as
  // unknown options.
  const Args a = ParseVec({"simulate", "--dynamic"});
  EXPECT_TRUE(a.Has("dynamic"));
  EXPECT_TRUE(a.UnconsumedKeys().empty());
}

Args ParseBool(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "backbuster");
  return Args::Parse(static_cast<int>(argv.size()), argv.data(),
                     {"verbose", "dynamic"});
}

TEST(ArgsTest, DeclaredBooleanFlagDoesNotSwallowNextToken) {
  // Regression: `simulate --verbose out.bbv` used to silently eat
  // `out.bbv` as the value of --verbose.
  const Args a = ParseBool({"simulate", "--verbose", "out.bbv"});
  EXPECT_TRUE(a.GetFlag("verbose"));
  EXPECT_EQ(a.Get("verbose", "sentinel"), "");
  // The stray positional is surfaced as a parse error, not lost.
  ASSERT_EQ(a.errors().size(), 1u);
  EXPECT_NE(a.errors()[0].find("out.bbv"), std::string::npos);
}

TEST(ArgsTest, DeclaredBooleanFlagBeforeRealOption) {
  const Args a = ParseBool({"simulate", "--dynamic", "--out", "x.bbv"});
  EXPECT_TRUE(a.GetFlag("dynamic"));
  EXPECT_EQ(a.Get("out", ""), "x.bbv");
  EXPECT_TRUE(a.errors().empty());
}

TEST(ArgsTest, DeclaredBooleanFlagRejectsEqualsValue) {
  const Args a = ParseBool({"simulate", "--verbose=1"});
  ASSERT_EQ(a.errors().size(), 1u);
  EXPECT_NE(a.errors()[0].find("verbose"), std::string::npos);
}

TEST(ArgsTest, UndeclaredKeysKeepValueGrammar) {
  const Args a = ParseBool({"simulate", "--out", "x.bbv"});
  EXPECT_EQ(a.Get("out", ""), "x.bbv");
  EXPECT_TRUE(a.errors().empty());
}

}  // namespace
}  // namespace bb::cli
