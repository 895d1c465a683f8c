// Unit tests for the bblint scanner: every rule gets a positive, a negative,
// and a suppressed case via LintContent, plus fixture files on disk proving
// each rule fires exactly once on a known-bad snippet and that suppression
// markers silence it.
#include "bblint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace bb::lint {
namespace {

// Findings for `content` linted under a library-code path (no exemptions).
std::vector<Finding> Lint(const std::string& content,
                          const std::string& path = "src/core/fixture.cpp") {
  return LintContent(path, content);
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  int n = 0;
  for (const auto& f : findings) n += f.rule == rule;
  return n;
}

TEST(BblintRegistryTest, TwelveRulesRegistered) {
  const auto names = RuleNames();
  ASSERT_EQ(names.size(), 12u);
  EXPECT_EQ(names[0], kRuleNondeterminism);
  EXPECT_EQ(names[1], kRuleRawPixelIndexing);
  EXPECT_EQ(names[2], kRuleFloatAccumulation);
  EXPECT_EQ(names[3], kRuleFloatTruncation);
  EXPECT_EQ(names[4], kRuleHeaderHygiene);
  EXPECT_EQ(names[5], kRuleFullCallMaterialization);
  EXPECT_EQ(names[6], kRulePerPixelLoop);
  EXPECT_EQ(names[7], kRuleSilentErrorDrop);
  EXPECT_EQ(names[8], kRuleLayering);
  EXPECT_EQ(names[9], kRuleUncheckedResult);
  EXPECT_EQ(names[10], kRuleRegistryConsistency);
  EXPECT_EQ(names[11], kRuleHeaderSelfContainment);
}

TEST(BblintRegistryTest, CatalogPhasesAndDocsArePopulated) {
  int line_rules = 0, project_rules = 0, build_rules = 0;
  for (const auto& info : RuleCatalog()) {
    EXPECT_NE(info.doc[0], '\0') << info.name;
    switch (info.phase) {
      case RulePhase::kLine: ++line_rules; break;
      case RulePhase::kProject: ++project_rules; break;
      case RulePhase::kBuild: ++build_rules; break;
    }
  }
  EXPECT_EQ(line_rules, 8);
  EXPECT_EQ(project_rules, 3);
  EXPECT_EQ(build_rules, 1);
}

TEST(BblintRegistryTest, OnlyRuleOptionIsolatesOneRule) {
  // Content violating two line rules at once.
  const std::string content =
      "srand(42);\nint w2 = static_cast<int>(w * 0.5);\n";
  Options only;
  only.only_rule = kRuleFloatTruncation;
  const auto findings =
      LintContent("src/core/fixture.cpp", content, only);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, kRuleFloatTruncation);
}

// --- no-nondeterminism ----------------------------------------------------

TEST(NondeterminismRuleTest, FlagsRandAndClocks) {
  EXPECT_EQ(CountRule(Lint("int x = rand();\n"), kRuleNondeterminism), 1);
  EXPECT_EQ(CountRule(Lint("srand(42);\n"), kRuleNondeterminism), 1);
  EXPECT_EQ(CountRule(Lint("std::random_device rd;\n"), kRuleNondeterminism),
            1);
  EXPECT_EQ(CountRule(Lint("auto t = time(nullptr);\n"), kRuleNondeterminism),
            1);
  EXPECT_EQ(CountRule(Lint("auto t0 = std::chrono::steady_clock::now();\n"),
                      kRuleNondeterminism),
            1);
}

TEST(NondeterminismRuleTest, SeededRngAndPlainCodeAreClean) {
  EXPECT_EQ(CountRule(Lint("auto v = rng.Uniform(0, 1);\n"),
                      kRuleNondeterminism),
            0);
  // `runtime(` must not trip the \btime( pattern.
  EXPECT_EQ(CountRule(Lint("auto v = runtime(x);\n"), kRuleNondeterminism), 0);
}

TEST(NondeterminismRuleTest, MatchesInCommentsAndStringsAreIgnored) {
  EXPECT_EQ(CountRule(Lint("// configure time (BB_HAVE_PNG)\n"),
                      kRuleNondeterminism),
            0);
  EXPECT_EQ(CountRule(Lint("const char* s = \"rand()\";\n"),
                      kRuleNondeterminism),
            0);
}

TEST(NondeterminismRuleTest, RngHeaderIsExempt) {
  EXPECT_EQ(CountRule(LintContent("src/synth/rng.h",
                                  "#pragma once\nstd::random_device rd;\n"),
                      kRuleNondeterminism),
            0);
}

TEST(NondeterminismRuleTest, OnlyTraceClockAndToolsMayReadClocks) {
  const std::string clock_line =
      "auto t0 = std::chrono::steady_clock::now();\n";
  // The sanctioned clock read lives in the trace registry; tools keep a
  // blanket exemption.
  EXPECT_EQ(CountRule(LintContent("src/common/trace.cpp", clock_line),
                      kRuleNondeterminism),
            0);
  EXPECT_EQ(CountRule(LintContent("tools/probe.cpp", clock_line),
                      kRuleNondeterminism),
            0);
  // Benches must go through trace::MonotonicSeconds / bench::Stopwatch.
  EXPECT_EQ(CountRule(LintContent("bench/bench_x.cpp", clock_line),
                      kRuleNondeterminism),
            1);
  EXPECT_EQ(CountRule(LintContent("bench/bench_x.cpp", "srand(1);\n"),
                      kRuleNondeterminism),
            1);
}

TEST(NondeterminismRuleTest, SuppressedBySameLineAllow) {
  EXPECT_EQ(CountRule(Lint("srand(42);  // bblint: allow(no-nondeterminism)\n"),
                      kRuleNondeterminism),
            0);
}

// --- no-raw-pixel-indexing ------------------------------------------------

TEST(RawPixelIndexingRuleTest, FlagsManualOffsetsAndDataArithmetic) {
  EXPECT_EQ(CountRule(Lint("buf[y * width + x] = 0;\n"),
                      kRuleRawPixelIndexing),
            1);
  EXPECT_EQ(CountRule(Lint("auto* p = img.pixels().data() + offset;\n"),
                      kRuleRawPixelIndexing),
            1);
  EXPECT_EQ(CountRule(Lint("pixels_[i] = v;\n"), kRuleRawPixelIndexing), 1);
}

TEST(RawPixelIndexingRuleTest, AccessorsAndFlatIterationAreClean) {
  EXPECT_EQ(CountRule(Lint("img(x, y) = v;\nimg.at(x, y) = v;\n"),
                      kRuleRawPixelIndexing),
            0);
  EXPECT_EQ(CountRule(Lint("for (auto& p : img.pixels()) p = v;\n"),
                      kRuleRawPixelIndexing),
            0);
  EXPECT_EQ(CountRule(Lint("row[std::clamp(x, 0, w - 1)] = v;\n"),
                      kRuleRawPixelIndexing),
            0);
}

TEST(RawPixelIndexingRuleTest, ImageHeaderIsExempt) {
  EXPECT_EQ(CountRule(LintContent(
                          "src/imaging/image.h",
                          "#pragma once\nreturn pixels_[y * width_ + x];\n"),
                      kRuleRawPixelIndexing),
            0);
}

TEST(RawPixelIndexingRuleTest, SuppressedByPreviousLineComment) {
  EXPECT_EQ(CountRule(Lint("// bblint: allow(no-raw-pixel-indexing)\n"
                           "buf[y * width + x] = 0;\n"),
                      kRuleRawPixelIndexing),
            0);
}

// --- no-unshared-float-accumulation ---------------------------------------

constexpr const char* kSharedAccum =
    "double total = 0.0;\n"
    "common::ParallelFor(0, h, 1, [&](std::int64_t y) {\n"
    "  total += 1.0;\n"
    "});\n";

TEST(FloatAccumulationRuleTest, FlagsOuterFloatCompoundAssign) {
  EXPECT_EQ(CountRule(Lint(kSharedAccum), kRuleFloatAccumulation), 1);
}

TEST(FloatAccumulationRuleTest, LambdaLocalAccumulatorIsClean) {
  EXPECT_EQ(CountRule(Lint("common::ParallelFor(0, h, 1, [&](std::int64_t y) "
                           "{\n  float acc = 0.0f;\n  acc += 1.0f;\n});\n"),
                      kRuleFloatAccumulation),
            0);
}

TEST(FloatAccumulationRuleTest, PerShardVectorAccumulationIsClean) {
  EXPECT_EQ(
      CountRule(Lint("std::vector<double> partial(4, 0.0);\n"
                     "common::ParallelShards(0, n, 1, [&](int s, std::int64_t "
                     "b, std::int64_t e) {\n  partial[s] += 1.0;\n});\n"),
                kRuleFloatAccumulation),
      0);
}

TEST(FloatAccumulationRuleTest, AccumulationOutsideParallelIsClean) {
  EXPECT_EQ(CountRule(Lint("double total = 0.0;\n"
                           "for (int i = 0; i < n; ++i) total += 1.0;\n"),
                      kRuleFloatAccumulation),
            0);
}

TEST(FloatAccumulationRuleTest, Suppressed) {
  EXPECT_EQ(
      CountRule(Lint("double total = 0.0;\n"
                     "common::ParallelFor(0, h, 1, [&](std::int64_t y) {\n"
                     "  total += 1.0;  // bblint: "
                     "allow(no-unshared-float-accumulation)\n});\n"),
                kRuleFloatAccumulation),
      0);
}

// --- no-float-truncation --------------------------------------------------

TEST(FloatTruncationRuleTest, FlagsTruncatingCastsOfFloatArithmetic) {
  EXPECT_EQ(CountRule(Lint("int w2 = static_cast<int>(w * 0.5);\n"),
                      kRuleFloatTruncation),
            1);
  EXPECT_EQ(CountRule(Lint("double scale = 2.0;\n"
                           "int w2 = static_cast<int>(w / scale);\n"),
                      kRuleFloatTruncation),
            1);
  EXPECT_EQ(CountRule(Lint("int w2 = (int)(w * 0.5);\n"),
                      kRuleFloatTruncation),
            1);
}

TEST(FloatTruncationRuleTest, RoundedAndIntegerCastsAreClean) {
  EXPECT_EQ(CountRule(Lint("int w2 = static_cast<int>(std::lround(w * 0.5));\n"),
                      kRuleFloatTruncation),
            0);
  EXPECT_EQ(
      CountRule(Lint("int bin = static_cast<int>(std::floor(h / 30.0f));\n"),
                kRuleFloatTruncation),
      0);
  EXPECT_EQ(CountRule(Lint("int half = static_cast<int>(n / 2);\n"),
                      kRuleFloatTruncation),
            0);
}

TEST(FloatTruncationRuleTest, Suppressed) {
  EXPECT_EQ(CountRule(Lint("int w2 = static_cast<int>(w * 0.5);  "
                           "// bblint: allow(no-float-truncation)\n"),
                      kRuleFloatTruncation),
            0);
}

// --- header-hygiene -------------------------------------------------------

TEST(HeaderHygieneRuleTest, FlagsMissingPragmaUsingNamespaceAndIostream) {
  EXPECT_EQ(CountRule(LintContent("src/core/x.h", "int F();\n"),
                      kRuleHeaderHygiene),
            1);  // missing #pragma once
  EXPECT_EQ(CountRule(LintContent("src/core/x.h",
                                  "#pragma once\nusing namespace std;\n"),
                      kRuleHeaderHygiene),
            1);
  EXPECT_EQ(CountRule(LintContent("src/core/x.h",
                                  "#pragma once\n#include <iostream>\n"),
                      kRuleHeaderHygiene),
            1);
}

TEST(HeaderHygieneRuleTest, CleanHeaderAndSourceFilesPass) {
  EXPECT_EQ(CountRule(LintContent("src/core/x.h",
                                  "#pragma once\n#include <string>\nint F();\n"),
                      kRuleHeaderHygiene),
            0);
  // .cpp files may do all of this.
  EXPECT_EQ(CountRule(LintContent("src/core/x.cpp",
                                  "#include <iostream>\nusing namespace std;\n"),
                      kRuleHeaderHygiene),
            0);
}

TEST(HeaderHygieneRuleTest, MissingPragmaSuppressedOnLineOne) {
  EXPECT_EQ(CountRule(LintContent(
                          "src/core/x.h",
                          "// bblint: allow(header-hygiene)\nint F();\n"),
                      kRuleHeaderHygiene),
            0);
}

// --- no-full-call-materialization -----------------------------------------

TEST(FullCallMaterializationRuleTest, FlagsOwnedStreamsAndAppendsInCore) {
  EXPECT_EQ(CountRule(Lint("video::VideoStream copy = call;\n"),
                      kRuleFullCallMaterialization),
            1);
  EXPECT_EQ(CountRule(Lint("video::VideoStream buffered{30.0};\n"),
                      kRuleFullCallMaterialization),
            1);
  EXPECT_EQ(CountRule(Lint("buffered.Append(std::move(frame));\n"),
                      kRuleFullCallMaterialization),
            1);
  EXPECT_EQ(CountRule(Lint("buffered.AddFrame(std::move(frame));\n"),
                      kRuleFullCallMaterialization),
            1);
}

TEST(FullCallMaterializationRuleTest, BorrowedAndStreamedUsesAreClean) {
  // Borrowing the call by reference (the batch-compat entry points) is fine.
  EXPECT_EQ(CountRule(Lint("void Prepare(const video::VideoStream& call);\n"),
                      kRuleFullCallMaterialization),
            0);
  // So is adapting a borrowed call into the streaming pipeline.
  EXPECT_EQ(CountRule(Lint("video::VideoStreamSource source(call);\n"),
                      kRuleFullCallMaterialization),
            0);
  EXPECT_EQ(CountRule(Lint("const video::VideoStream* call_ptr = &call;\n"),
                      kRuleFullCallMaterialization),
            0);
}

TEST(FullCallMaterializationRuleTest, OnlyAppliesUnderSrcCore) {
  const std::string owned = "video::VideoStream out{30.0};\n";
  const std::string append = "out.AddFrame(std::move(frame));\n";
  for (const char* path :
       {"src/video/serialize.cpp", "src/synth/recorder.cpp",
        "src/vbg/compositor.cpp", "apps/backbuster.cpp",
        "tests/core/streaming_test.cpp"}) {
    EXPECT_EQ(CountRule(LintContent(path, owned + append),
                        kRuleFullCallMaterialization),
              0)
        << path;
  }
  EXPECT_EQ(CountRule(LintContent("src/core/streaming.cpp", owned + append),
                      kRuleFullCallMaterialization),
            2);
}

TEST(FullCallMaterializationRuleTest, Suppressed) {
  EXPECT_EQ(CountRule(Lint("// bblint: allow(no-full-call-materialization)\n"
                           "video::VideoStream copy = call;\n"),
                      kRuleFullCallMaterialization),
            0);
}

// --- no-silent-error-drop -------------------------------------------------

TEST(SilentErrorDropRuleTest, FlagsBareStatementCallsToMustCheckFunctions) {
  EXPECT_EQ(CountRule(Lint("LoadBbv(path);\n"), kRuleSilentErrorDrop), 1);
  EXPECT_EQ(CountRule(Lint("video::LoadBbv(path);\n"), kRuleSilentErrorDrop),
            1);
  EXPECT_EQ(CountRule(Lint("bb::core::SavePartial(partial, path);\n"),
                      kRuleSilentErrorDrop),
            1);
  EXPECT_EQ(CountRule(Lint("faultinject::Configure(spec);\n"),
                      kRuleSilentErrorDrop),
            1);
  EXPECT_EQ(CountRule(Lint("streaming.PushBadFrame(i, reason);\n"),
                      kRuleSilentErrorDrop),
            0);  // method calls on an object are out of scope for the regex
  EXPECT_EQ(CountRule(Lint("PushBadFrame(i, reason);\n"),
                      kRuleSilentErrorDrop),
            1);
  EXPECT_EQ(CountRule(Lint("video::WriteBbv2(call, path);\n"),
                      kRuleSilentErrorDrop),
            1);
  EXPECT_EQ(CountRule(Lint("Seek(frame);\n"), kRuleSilentErrorDrop), 1);
}

TEST(SilentErrorDropRuleTest, FlagsBareWithContext) {
  EXPECT_EQ(
      CountRule(Lint("status.WithContext(\"load\");\n"), kRuleSilentErrorDrop),
      1);
  EXPECT_EQ(CountRule(Lint("return status.WithContext(\"load\");\n"),
                      kRuleSilentErrorDrop),
            0);
}

TEST(SilentErrorDropRuleTest, ConsumedResultsAreClean) {
  EXPECT_EQ(CountRule(Lint("const auto call = LoadBbv(path);\n"),
                      kRuleSilentErrorDrop),
            0);
  EXPECT_EQ(CountRule(Lint("return LoadBbv(path);\n"), kRuleSilentErrorDrop),
            0);
  EXPECT_EQ(CountRule(Lint("if (LoadBbv(path).ok()) {\n"),
                      kRuleSilentErrorDrop),
            0);
  EXPECT_EQ(
      CountRule(Lint("(void)SavePartial(partial, path);\n"),
                kRuleSilentErrorDrop),
      0);
  EXPECT_EQ(CountRule(Lint("ASSERT_TRUE(LoadBbv(path).ok());\n",
                           "tests/video/serialize_test.cpp"),
                      kRuleSilentErrorDrop),
            0);
}

TEST(SilentErrorDropRuleTest, Suppressed) {
  EXPECT_EQ(
      CountRule(Lint("LoadBbv(path);  // bblint: allow(no-silent-error-drop)\n"),
                kRuleSilentErrorDrop),
      0);
}

// --- raw string literals --------------------------------------------------

TEST(RawStringTest, RawLiteralContentsAreNotScanned) {
  EXPECT_TRUE(Lint("const char* s = R\"(srand(42); rand();)\";\n").empty());
  EXPECT_TRUE(
      Lint("const char* s = R\"(buf[y * width + x] = 0;)\";\n").empty());
}

TEST(RawStringTest, CustomDelimiterDoesNotEndEarly) {
  // The literal contains `)"` which is NOT the terminator for delimiter
  // `xy`; a naive stripper would resume scanning inside the literal and
  // a correct one must stay inside until )xy".
  EXPECT_TRUE(
      Lint("const char* s = R\"xy(end-like )\" srand(1) )xy\";\n").empty());
  // Code after the true terminator is scanned again.
  EXPECT_EQ(CountRule(Lint("const char* s = R\"xy( )\" )xy\"; srand(1);\n"),
                      kRuleNondeterminism),
            1);
}

TEST(RawStringTest, MultiLineRawLiteralKeepsLineNumbers) {
  const auto findings = Lint(
      "const char* s = R\"(\n"   // line 1
      "srand(42);\n"             // line 2: inside literal, not scanned
      "rand();\n"                // line 3: inside literal, not scanned
      ")\";\n"                   // line 4
      "srand(7);\n");            // line 5: real violation
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, kRuleNondeterminism);
  EXPECT_EQ(findings[0].line, 5);
}

TEST(RawStringTest, MalformedIntroducerFallsBackToPlainString) {
  // `R"` followed by a character that cannot start a raw delimiter is an
  // ordinary string whose prefix happens to contain R; scanning must not
  // get stuck or swallow the rest of the file.
  const auto findings = Lint("const char* s = \"R\";\nsrand(1);\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
}

// --- suppression mechanics ------------------------------------------------

TEST(SuppressionTest, AllowAllSilencesEveryRule) {
  EXPECT_TRUE(Lint("srand(42);  // bblint: allow(all)\n").empty());
}

TEST(SuppressionTest, AllowListHandlesMultipleRules) {
  EXPECT_TRUE(
      Lint("int w2 = static_cast<int>(srand(1) * 0.5);  // bblint: "
           "allow(no-float-truncation, no-nondeterminism)\n")
          .empty());
}

TEST(SuppressionTest, WrongRuleNameDoesNotSuppress) {
  EXPECT_EQ(CountRule(Lint("srand(42);  // bblint: allow(no-float-truncation)\n"),
                      kRuleNondeterminism),
            1);
}

// --- fixture files --------------------------------------------------------

std::string FixturePath(const std::string& name) {
  return std::string(BBLINT_FIXTURE_DIR) + "/" + name;
}

// Lints a fixture under a library-code path so no exemption applies.
std::vector<Finding> LintFixture(const std::string& name) {
  return LintFile("src/fixtures/" + name, FixturePath(name));
}

struct FixtureCase {
  const char* file;
  const char* rule;
};

class BblintFixtureTest : public ::testing::TestWithParam<FixtureCase> {};

TEST_P(BblintFixtureTest, BadFixtureFiresItsRuleExactlyOnce) {
  const auto findings = LintFixture(GetParam().file);
  ASSERT_EQ(findings.size(), 1u) << "fixture " << GetParam().file;
  EXPECT_EQ(findings[0].rule, GetParam().rule);
  EXPECT_GT(findings[0].line, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, BblintFixtureTest,
    ::testing::Values(
        FixtureCase{"nondeterminism.cpp", kRuleNondeterminism},
        FixtureCase{"raw_index.cpp", kRuleRawPixelIndexing},
        FixtureCase{"float_accum.cpp", kRuleFloatAccumulation},
        FixtureCase{"float_trunc.cpp", kRuleFloatTruncation},
        FixtureCase{"header.h", kRuleHeaderHygiene},
        FixtureCase{"error_drop.cpp", kRuleSilentErrorDrop},
        FixtureCase{"raw_string.cpp", kRuleNondeterminism},
        FixtureCase{"per_pixel_loop.cpp", kRulePerPixelLoop},
        FixtureCase{"per_pixel_loop_span.cpp", kRulePerPixelLoop}),
    [](const ::testing::TestParamInfo<FixtureCase>& info) {
      std::string name = info.param.file;
      for (char& c : name) {
        if (c == '-' || c == '.') c = '_';
      }
      return name;
    });

TEST(BblintFixtureFilesTest, SuppressedFixtureIsSilent) {
  EXPECT_TRUE(LintFixture("suppressed.cpp").empty());
}

TEST(BblintFixtureFilesTest, CleanFixtureIsSilent) {
  EXPECT_TRUE(LintFixture("clean.cpp").empty());
}

TEST(BblintFixtureFilesTest, MaterializationFixtureFiresUnderCorePathOnly) {
  const auto core = LintFile("src/core/core_materialize.cpp",
                             FixturePath("core_materialize.cpp"));
  ASSERT_EQ(core.size(), 1u);
  EXPECT_EQ(core[0].rule, kRuleFullCallMaterialization);
  EXPECT_GT(core[0].line, 0);
  // The same content under a non-core path is clean (the rule is path-gated).
  EXPECT_TRUE(LintFixture("core_materialize.cpp").empty());
}

TEST(BblintFixtureFilesTest, PerPixelLoopRuleIsPathGated) {
  // The same loop inside the kernel catalog is the sanctioned home...
  EXPECT_TRUE(LintFile("src/imaging/kernels/kernels.cpp",
                       FixturePath("per_pixel_loop.cpp"))
                  .empty());
  // ...and outside src/ (tests, tools, bench) the rule does not apply.
  EXPECT_TRUE(LintFile("tests/imaging/loop_test.cpp",
                       FixturePath("per_pixel_loop.cpp"))
                  .empty());
}

TEST(BblintFixtureFilesTest, UnreadableFileYieldsIoFinding) {
  const auto findings = LintFixture("does_not_exist.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lint-io");
}

}  // namespace
}  // namespace bb::lint
