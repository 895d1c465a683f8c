// Unit tests for the trace registry (src/common/trace.h): JSON escaping of
// hostile stage names, nested timers, counter wrap-around, concurrent
// emission, and the zero-overhead-when-disabled contract (checked as
// zero *allocations* via the counting global operator new in
// counting_allocator.cpp - this test binary is kept separate from
// common_tests so the replacement stays contained).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.h"
#include "counting_allocator.h"

namespace bb::trace {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Disable();
    Reset();
  }
  void TearDown() override {
    Disable();
    Reset();
  }
};

TEST_F(TraceTest, EscapeJsonPassesPlainStringsThrough) {
  EXPECT_EQ(EscapeJson("reconstruct.vbm"), "reconstruct.vbm");
  EXPECT_EQ(EscapeJson(""), "");
  EXPECT_EQ(EscapeJson("utf8 \xc3\xa9 bytes pass"), "utf8 \xc3\xa9 bytes pass");
}

TEST_F(TraceTest, EscapeJsonHandlesHostileStrings) {
  EXPECT_EQ(EscapeJson("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeJson("back\\slash"), "back\\\\slash");
  EXPECT_EQ(EscapeJson("\"},\"pwned\":{\""),
            "\\\"},\\\"pwned\\\":{\\\"");
  EXPECT_EQ(EscapeJson("\n\r\t\b\f"), "\\n\\r\\t\\b\\f");
  EXPECT_EQ(EscapeJson(std::string("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(EscapeJson("\x01\x1f"), "\\u0001\\u001f");
}

TEST_F(TraceTest, HostileStageNamesSurviveSerializationIntact) {
  Enable();
  AddCounter("evil\"name\nwith\\junk", 3);
  const std::string json = ToJson(Capture());
  EXPECT_NE(json.find("\"evil\\\"name\\nwith\\\\junk\": 3"),
            std::string::npos)
      << json;
  // No raw control characters may survive into the serialized form.
  for (const char c : json) {
    EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n')
        << "raw control char in JSON output";
  }
}

TEST_F(TraceTest, NestedScopedTimersAccountBothStages) {
  Enable();
  {
    const ScopedTimer outer("outer");
    for (int i = 0; i < 3; ++i) {
      const ScopedTimer inner("inner");
    }
  }
  const Snapshot snap = Capture();
  ASSERT_EQ(snap.stages.size(), 2u);
  // Snapshot is name-sorted: "inner" < "outer".
  EXPECT_EQ(snap.stages[0].name, "inner");
  EXPECT_EQ(snap.stages[0].calls, 3u);
  EXPECT_EQ(snap.stages[1].name, "outer");
  EXPECT_EQ(snap.stages[1].calls, 1u);
  // Flat-profiler accounting: the outer stage's elapsed time covers the
  // inner stages' total.
  EXPECT_GE(snap.stages[1].total_seconds, snap.stages[0].total_seconds);
  EXPECT_GE(snap.stages[0].min_seconds, 0.0);
  EXPECT_GE(snap.stages[0].max_seconds, snap.stages[0].min_seconds);
}

TEST_F(TraceTest, CounterOverflowWrapsModulo2To64) {
  Enable();
  AddCounter("wrap", std::numeric_limits<std::uint64_t>::max());
  AddCounter("wrap", 5);
  const Snapshot snap = Capture();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 4u);  // max + 5 == 4 mod 2^64
}

TEST_F(TraceTest, ConcurrentEmissionLosesNothing) {
  Enable();
  constexpr int kThreads = 8;
  constexpr int kIterations = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kIterations; ++i) {
        const ScopedTimer timer("contended.stage");
        AddCounter("contended.counter", 2);
      }
    });
  }
  for (auto& t : threads) t.join();
  const Snapshot snap = Capture();
  ASSERT_EQ(snap.stages.size(), 1u);
  EXPECT_EQ(snap.stages[0].calls,
            static_cast<std::uint64_t>(kThreads) * kIterations);
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value,
            static_cast<std::uint64_t>(kThreads) * kIterations * 2);
}

TEST_F(TraceTest, DisabledModeMakesNoAllocations) {
  Disable();
  // Warm nothing: the disabled path must not even touch the registry.
  const std::uint64_t before = bb::counting_allocator::Allocations();
  for (int i = 0; i < 1000; ++i) {
    const ScopedTimer timer("never.recorded");
    AddCounter("never.recorded", 1);
  }
  const std::uint64_t after = bb::counting_allocator::Allocations();
  EXPECT_EQ(after, before);
  // And nothing was recorded.
  const Snapshot snap = Capture();
  EXPECT_TRUE(snap.stages.empty());
  EXPECT_TRUE(snap.counters.empty());
}

TEST_F(TraceTest, DisabledTimersStraddlingDisableAreDropped) {
  Enable();
  AddCounter("kept", 1);
  Disable();
  AddCounter("kept", 1);  // ignored
  {
    const ScopedTimer timer("dropped");  // disabled at entry -> no slot
  }
  const Snapshot snap = Capture();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 1u);
  EXPECT_TRUE(snap.stages.empty());
}

TEST_F(TraceTest, ToJsonWithoutTimingsIsTimingFree) {
  Enable();
  {
    const ScopedTimer timer("stage.a");
  }
  AddCounter("count.b", 7);
  const std::string skeleton = ToJson(Capture(), /*include_timings=*/false);
  EXPECT_EQ(skeleton.find("_ms"), std::string::npos) << skeleton;
  EXPECT_NE(skeleton.find("\"stage.a\": {\"calls\": 1}"), std::string::npos)
      << skeleton;
  EXPECT_NE(skeleton.find("\"count.b\": 7"), std::string::npos) << skeleton;

  const std::string full = ToJson(Capture(), /*include_timings=*/true);
  EXPECT_NE(full.find("total_ms"), std::string::npos);
  EXPECT_NE(full.find("mean_ms"), std::string::npos);
}

TEST_F(TraceTest, EmptyRegistrySerializesToValidSkeleton) {
  const std::string json = ToJson(Capture());
  EXPECT_NE(json.find("\"schema\": \"bb.trace.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"stages\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
}

}  // namespace
}  // namespace bb::trace
