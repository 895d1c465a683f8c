// Equivalence tests for the streaming temporal estimators: every streaming
// form must be bit-identical to its batch wrapper, at any window size, on
// the same frames. The batch functions are the reference implementations;
// these tests are what lets the streaming pipeline replace them wholesale.
#include "video/temporal.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "video/frame_source.h"

namespace bb::video {
namespace {

using imaging::Image;

// A call-shaped clip: a looping animated background (period frames) with a
// moving caller block occluding part of every frame.
VideoStream LoopingCall(int frames, int period, int w = 16, int h = 12) {
  VideoStream v(30.0);
  for (int i = 0; i < frames; ++i) {
    Image f(w, h);
    const int phase = i % period;
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        f(x, y) = {static_cast<std::uint8_t>((x * 11 + phase * 40) & 0xFF),
                   static_cast<std::uint8_t>((y * 7 + phase * 25) & 0xFF),
                   static_cast<std::uint8_t>((x + y) & 0xFF)};
      }
    }
    // Caller: a block sweeping in step with the loop, so the whole frame
    // (background + caller) repeats with exactly `period`.
    const int cx = 2 + phase;
    for (int y = h / 3; y < h - 2; ++y) {
      for (int x = cx; x < cx + 4 && x < w; ++x) {
        f(x, y) = {200, static_cast<std::uint8_t>(phase * 9), 40};
      }
    }
    v.AddFrame(std::move(f));
  }
  return v;
}

// A mostly-static clip (no loop): static background, moving caller.
VideoStream StaticCall(int frames, int w = 14, int h = 10) {
  VideoStream v(30.0);
  for (int i = 0; i < frames; ++i) {
    Image f(w, h, {90, 120, 150});
    const int cx = 1 + (i % (w - 4));
    for (int y = 2; y < h - 2; ++y) {
      for (int x = cx; x < cx + 3; ++x) {
        f(x, y) = {static_cast<std::uint8_t>(10 + i), 200, 60};
      }
    }
    v.AddFrame(std::move(f));
  }
  return v;
}

// --- StaticLayerAccumulator ----------------------------------------------

TEST(StaticLayerAccumulatorTest, MatchesBatchEstimateExactly) {
  const VideoStream v = StaticCall(20);
  for (int min_run : {3, 8, 15}) {
    const StaticLayer batch = EstimateStaticLayer(v, min_run);
    StaticLayerAccumulator acc;
    for (int i = 0; i < v.frame_count(); ++i) acc.Push(v.frame(i));
    EXPECT_EQ(acc.frames_seen(), v.frame_count());
    const StaticLayer streamed = acc.Finalize(min_run);
    EXPECT_EQ(streamed.color, batch.color) << "min_run " << min_run;
    EXPECT_EQ(streamed.valid, batch.valid) << "min_run " << min_run;
  }
}

TEST(StaticLayerAccumulatorTest, MatchesBatchOnAnimatedBackground) {
  const VideoStream v = LoopingCall(24, 6);
  const StaticLayer batch = EstimateStaticLayer(v, 10);
  StaticLayerAccumulator acc;
  for (int i = 0; i < v.frame_count(); ++i) acc.Push(v.frame(i));
  const StaticLayer streamed = acc.Finalize(10);
  EXPECT_EQ(streamed.color, batch.color);
  EXPECT_EQ(streamed.valid, batch.valid);
}

TEST(StaticLayerAccumulatorTest, EmptyStreamYieldsEmptyLayer) {
  StaticLayerAccumulator acc;
  const StaticLayer layer = acc.Finalize(5);
  EXPECT_TRUE(layer.color.empty());
  EXPECT_TRUE(layer.valid.empty());
}

// --- DetectLoopPeriodStreaming -------------------------------------------

TEST(DetectLoopPeriodStreamingTest, MatchesBatchOnLoopingVideo) {
  const VideoStream v = LoopingCall(36, 6);
  const auto batch = DetectLoopPeriod(v);
  VideoStreamSource source(v);
  const auto streamed = DetectLoopPeriodStreaming(source);
  ASSERT_TRUE(batch.has_value());
  ASSERT_TRUE(streamed.has_value());
  EXPECT_EQ(*streamed, *batch);
  EXPECT_EQ(*streamed, 6);
}

TEST(DetectLoopPeriodStreamingTest, MatchesBatchWhenNoLoopExists) {
  // Every frame differs everywhere: no candidate period scores low enough.
  VideoStream v(30.0);
  for (int i = 0; i < 20; ++i) {
    v.AddFrame(Image(8, 8, {static_cast<std::uint8_t>(i * 12), 0, 0}));
  }
  const auto batch = DetectLoopPeriod(v);
  VideoStreamSource source(v);
  const auto streamed = DetectLoopPeriodStreaming(source);
  EXPECT_EQ(streamed.has_value(), batch.has_value());
}

TEST(DetectLoopPeriodStreamingTest, MatchesBatchAcrossOptionVariants) {
  const VideoStream v = LoopingCall(40, 8);
  for (LoopDetectOptions opts :
       {LoopDetectOptions{4, 120, 0.6, 8}, LoopDetectOptions{4, 12, 0.6, 8},
        LoopDetectOptions{2, 30, 0.9, 2}}) {
    const auto batch = DetectLoopPeriod(v, opts);
    VideoStreamSource source(v);
    const auto streamed = DetectLoopPeriodStreaming(source, opts);
    ASSERT_EQ(streamed.has_value(), batch.has_value())
        << "max_period " << opts.max_period;
    if (batch.has_value()) {
      EXPECT_EQ(*streamed, *batch);
    }
  }
}

// --- EstimateLoopFramesStreaming -----------------------------------------

TEST(EstimateLoopFramesStreamingTest, MatchesBatchAtEveryWindowSize) {
  const VideoStream v = LoopingCall(36, 6);
  const LoopEstimate batch = EstimateLoopFrames(v, 6);
  ASSERT_EQ(batch.phase_frames.size(), 6u);
  // Window sizes from "one frame of rows at a time" up to "whole call".
  for (int window : {1, 4, 10, 36, 100}) {
    VideoStreamSource source(v);
    const LoopEstimate streamed = EstimateLoopFramesStreaming(source, 6, window);
    ASSERT_EQ(streamed.phase_frames.size(), batch.phase_frames.size())
        << "window " << window;
    for (std::size_t p = 0; p < batch.phase_frames.size(); ++p) {
      EXPECT_EQ(streamed.phase_frames[p], batch.phase_frames[p])
          << "window " << window << " phase " << p;
      EXPECT_EQ(streamed.phase_valid[p], batch.phase_valid[p])
          << "window " << window << " phase " << p;
    }
  }
}

TEST(EstimateLoopFramesStreamingTest, PartialFinalOccurrenceMatchesBatch) {
  // 26 frames at period 6: the last occurrence of phases 2..5 is partial.
  const VideoStream v = LoopingCall(26, 6);
  const LoopEstimate batch = EstimateLoopFrames(v, 6);
  VideoStreamSource source(v);
  const LoopEstimate streamed = EstimateLoopFramesStreaming(source, 6, 8);
  ASSERT_EQ(streamed.phase_frames.size(), batch.phase_frames.size());
  for (std::size_t p = 0; p < batch.phase_frames.size(); ++p) {
    EXPECT_EQ(streamed.phase_frames[p], batch.phase_frames[p]) << "phase " << p;
    EXPECT_EQ(streamed.phase_valid[p], batch.phase_valid[p]) << "phase " << p;
  }
}

}  // namespace
}  // namespace bb::video
