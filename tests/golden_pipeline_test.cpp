// Golden end-to-end regression test: one fixed synthesize -> composite ->
// reconstruct run with every metric pinned to its exact value, once with the
// NoisyOracleSegmenter the benches use and once with the ClassicalSegmenter
// `backbuster attack` runs. The whole pipeline is deterministic by contract
// (fixed seeds, deterministic parallel runtime, no wall-clock dependence),
// so these are EXPECT_DOUBLE_EQ pins, not tolerances: any drift in any
// stage - synthesis, compositing, matting, segmentation, decomposition,
// accumulation, metrics - shows up here as a bit-exact diff.
//
// To regenerate after an INTENTIONAL output change, run this binary with
// BB_GOLDEN_PRINT=1 and paste the printed block over the constants below
// (then justify the change in the PR description).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <utility>

#include "common/parallel.h"
#include "core/metrics.h"
#include "core/reconstruction.h"
#include "core/streaming.h"
#include "datasets/datasets.h"
#include "segmentation/segmenter.h"
#include "vbg/compositor.h"
#include "vbg/virtual_source.h"
#include "video/frame_source.h"

namespace bb {
namespace {

// The same E2-style call the determinism tests use: participant 1, active
// mode, scene seed 11, 4 s at 96x72@10fps over the beach stock VB.
constexpr int kGoldenFrames = 200;
constexpr double kGoldenVerified = 0.25376157407407407;
constexpr double kGoldenClaimed = 0.34620949074074076;
constexpr double kGoldenPrecision = 0.73297116590054323;
constexpr double kGoldenMeanVbmr = 1.0;
constexpr std::uint64_t kGoldenLeakSum = 44871;

// The same call through the ClassicalSegmenter: an FNV-1a-64 digest over
// every Segment() mask in frame order, and the streamed reconstruction's
// verified RBRR and leak_counts sum (identical at any thread count).
constexpr std::uint64_t kClassicalMaskDigest = 0xa0bbcd842ebf1b7aULL;
constexpr double kClassicalVerified = 0.084780092592592587;
constexpr std::uint64_t kClassicalLeakSum = 123642;

struct GoldenCall {
  synth::RawRecording raw;
  imaging::Image vb;
  vbg::CompositedCall call;
};

GoldenCall MakeGoldenCall() {
  datasets::E2Case c;
  c.participant = 1;
  c.mode = datasets::E2Mode::kActive;
  c.scene_seed = 11;
  c.duration_s = 4.0;
  datasets::SimScale scale;
  scale.width = 96;
  scale.height = 72;
  scale.fps = 10.0;
  GoldenCall golden;
  golden.raw = datasets::RecordE2(c, scale);
  golden.vb = vbg::MakeStockImage(vbg::StockImage::kBeach, 96, 72);
  golden.call = vbg::ApplyVirtualBackground(
      golden.raw, vbg::StaticImageSource(golden.vb));
  return golden;
}

std::uint64_t LeakSum(const core::ReconstructionResult& rec) {
  const auto leak_pixels = rec.leak_counts.pixels();
  return std::accumulate(leak_pixels.begin(), leak_pixels.end(),
                         std::uint64_t{0});
}

struct GoldenRun {
  vbg::CompositedCall call;
  core::ReconstructionResult rec;
  core::RbrrResult rbrr;
  double mean_vbmr = 0.0;
  std::uint64_t leak_sum = 0;
};

GoldenRun RunGoldenPipeline() {
  GoldenCall golden = MakeGoldenCall();
  const synth::RawRecording& raw = golden.raw;
  const imaging::Image& vb = golden.vb;

  GoldenRun run;
  run.call = std::move(golden.call);
  segmentation::NoisyOracleSegmenter seg(raw.caller_masks, {}, 7);
  core::ReconstructionOptions opts;
  opts.keep_frame_masks = true;
  // Named: Reconstructor holds the reference by const&.
  const core::VbReference ref = core::VbReference::KnownImage(vb);
  core::Reconstructor rc(ref, seg, opts);
  run.rec = rc.Run(run.call.video);
  run.rbrr = core::Rbrr(run.rec, raw.true_background);
  run.mean_vbmr = core::MeanVbmr(run.rec.frame_masks, run.call.vb_regions);
  run.leak_sum = LeakSum(run.rec);
  return run;
}

// Runs the ClassicalSegmenter's analysis passes over `video`, then hashes
// every frame's Segment() mask in order.
std::uint64_t ClassicalMaskDigest(const video::VideoStream& video) {
  segmentation::ClassicalSegmenter seg;
  const video::StreamInfo info{video.width(), video.height(),
                               video.frame_count(), video.fps()};
  for (int pass = 0; pass < seg.AnalysisPasses(); ++pass) {
    seg.BeginAnalysisPass(pass, info);
    for (int i = 0; i < video.frame_count(); ++i) {
      seg.PushAnalysisFrame(pass, video.frame(i), i);
    }
    seg.EndAnalysisPass(pass);
  }
  std::uint64_t hash = 14695981039346656037ULL;
  for (int i = 0; i < video.frame_count(); ++i) {
    const imaging::Bitmap mask = seg.Segment(video.frame(i), i);
    for (const std::uint8_t byte : mask.pixels()) {
      hash ^= byte;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

// A streamed ClassicalSegmenter reconstruction of the golden call against
// the known VB, windowed so the caller and decomposition passes flush
// several times.
core::ReconstructionResult RunClassicalStreamed(const GoldenCall& golden) {
  segmentation::ClassicalSegmenter seg;
  const core::VbReference ref = core::VbReference::KnownImage(golden.vb);
  core::StreamingOptions opts;
  opts.window_frames = 16;
  core::StreamingReconstructor rc(ref, seg, opts);
  video::VideoStreamSource source(golden.call.video);
  return rc.Run(source).value();
}

TEST(GoldenPipelineTest, HeadlineMetricsMatchGoldenValuesExactly) {
  const GoldenRun run = RunGoldenPipeline();

  if (std::getenv("BB_GOLDEN_PRINT") != nullptr) {
    std::printf("constexpr int kGoldenFrames = %d;\n",
                run.call.video.frame_count());
    std::printf("constexpr double kGoldenVerified = %.17g;\n",
                run.rbrr.verified);
    std::printf("constexpr double kGoldenClaimed = %.17g;\n",
                run.rbrr.claimed);
    std::printf("constexpr double kGoldenPrecision = %.17g;\n",
                run.rbrr.precision);
    std::printf("constexpr double kGoldenMeanVbmr = %.17g;\n",
                run.mean_vbmr);
    std::printf("constexpr std::uint64_t kGoldenLeakSum = %llu;\n",
                static_cast<unsigned long long>(run.leak_sum));
  }

  EXPECT_EQ(run.call.video.frame_count(), kGoldenFrames);
  EXPECT_DOUBLE_EQ(run.rbrr.verified, kGoldenVerified);
  EXPECT_DOUBLE_EQ(run.rbrr.claimed, kGoldenClaimed);
  EXPECT_DOUBLE_EQ(run.rbrr.precision, kGoldenPrecision);
  EXPECT_DOUBLE_EQ(run.mean_vbmr, kGoldenMeanVbmr);
  EXPECT_EQ(run.leak_sum, kGoldenLeakSum);

  // Shape guards so a regenerated golden that is obviously broken (empty
  // reconstruction, no masking) cannot be pasted in silently.
  EXPECT_GT(run.rbrr.verified, 0.0);
  EXPECT_GE(run.rbrr.claimed, run.rbrr.verified);
  EXPECT_GT(run.rbrr.precision, 0.5);
  EXPECT_GT(run.mean_vbmr, 0.5);
}

// The golden values must not depend on the thread count - otherwise the
// pin above would only hold on machines with the same core count.
TEST(GoldenPipelineTest, GoldenValuesThreadCountIndependent) {
  common::SetThreadCount(5);
  const GoldenRun run = RunGoldenPipeline();
  common::SetThreadCount(0);
  EXPECT_DOUBLE_EQ(run.rbrr.verified, kGoldenVerified);
  EXPECT_DOUBLE_EQ(run.rbrr.claimed, kGoldenClaimed);
  EXPECT_DOUBLE_EQ(run.rbrr.precision, kGoldenPrecision);
  EXPECT_DOUBLE_EQ(run.mean_vbmr, kGoldenMeanVbmr);
  EXPECT_EQ(run.leak_sum, kGoldenLeakSum);
}

TEST(GoldenPipelineTest, ClassicalSegmenterMatchesGoldenValuesExactly) {
  const GoldenCall golden = MakeGoldenCall();
  const std::uint64_t digest = ClassicalMaskDigest(golden.call.video);
  if (std::getenv("BB_GOLDEN_PRINT") != nullptr) {
    const core::ReconstructionResult rec = RunClassicalStreamed(golden);
    std::printf(
        "constexpr std::uint64_t kClassicalMaskDigest = 0x%016llxULL;\n",
        static_cast<unsigned long long>(digest));
    std::printf("constexpr double kClassicalVerified = %.17g;\n",
                core::Rbrr(rec, golden.raw.true_background).verified);
    std::printf("constexpr std::uint64_t kClassicalLeakSum = %llu;\n",
                static_cast<unsigned long long>(LeakSum(rec)));
  }
  EXPECT_EQ(digest, kClassicalMaskDigest);

  for (int threads : {1, 4}) {
    common::SetThreadCount(threads);
    const core::ReconstructionResult rec = RunClassicalStreamed(golden);
    const core::RbrrResult rbrr = core::Rbrr(rec, golden.raw.true_background);
    EXPECT_DOUBLE_EQ(rbrr.verified, kClassicalVerified) << threads;
    EXPECT_EQ(LeakSum(rec), kClassicalLeakSum) << threads;
    // Shape guards, as above.
    EXPECT_GT(rbrr.verified, 0.0) << threads;
    EXPECT_GT(LeakSum(rec), 0u) << threads;
  }
  common::SetThreadCount(0);
}

}  // namespace
}  // namespace bb
