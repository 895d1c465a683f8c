#include "segmentation/segmenter.h"

#include <gtest/gtest.h>

#include "imaging/draw.h"
#include "video/video.h"
#include "synth/recorder.h"
#include "vbg/compositor.h"

namespace bb::segmentation {
namespace {

using imaging::Bitmap;

// Drives `seg`'s analysis passes over `call`, the way the streaming core
// does before it segments any frame.
void Analyze(PersonSegmenter& seg, const video::VideoStream& call) {
  const video::StreamInfo info{call.width(), call.height(),
                               call.frame_count(), call.fps()};
  for (int pass = 0; pass < seg.AnalysisPasses(); ++pass) {
    seg.BeginAnalysisPass(pass, info);
    for (int i = 0; i < call.frame_count(); ++i) {
      seg.PushAnalysisFrame(pass, call.frame(i), i);
    }
    seg.EndAnalysisPass(pass);
  }
}

synth::RawRecording SmallRecording(synth::ActionKind action) {
  synth::RecordingSpec spec;
  spec.scene.width = 96;
  spec.scene.height = 72;
  spec.action.kind = action;
  spec.fps = 8.0;
  spec.duration_s = 3.0;
  spec.seed = 33;
  return synth::RecordCall(spec);
}

TEST(NoisyOracleTest, ReachesDeepLabClassAccuracy) {
  const auto raw = SmallRecording(synth::ActionKind::kArmWave);
  NoisyOracleSegmenter seg(raw.caller_masks, NoisyOracleParams{}, 17);
  double iou_sum = 0.0;
  const int n = raw.video.frame_count();
  for (int i = 0; i < n; ++i) {
    iou_sum += imaging::Iou(seg.Segment(raw.video.frame(i), i),
                            raw.caller_masks[static_cast<std::size_t>(i)]);
  }
  const double mean_iou = iou_sum / n;
  EXPECT_GT(mean_iou, 0.88);  // DeepLabv3-class person segmentation
  EXPECT_LT(mean_iou, 1.0);   // but not a perfect oracle
}

TEST(NoisyOracleTest, NoiseScalesWithParameter) {
  const auto raw = SmallRecording(synth::ActionKind::kStill);
  NoisyOracleParams mild, harsh;
  harsh.boundary_noise_px = 4.0;
  harsh.pocket_inclusion = 1.0;
  NoisyOracleSegmenter a(raw.caller_masks, mild, 3);
  NoisyOracleSegmenter b(raw.caller_masks, harsh, 3);
  const double iou_mild =
      imaging::Iou(a.Segment(raw.video.frame(4), 4), raw.caller_masks[4]);
  const double iou_harsh =
      imaging::Iou(b.Segment(raw.video.frame(4), 4), raw.caller_masks[4]);
  EXPECT_GT(iou_mild, iou_harsh);
}

TEST(NoisyOracleTest, DeterministicPerFrame) {
  const auto raw = SmallRecording(synth::ActionKind::kStill);
  NoisyOracleSegmenter seg(raw.caller_masks, NoisyOracleParams{}, 5);
  EXPECT_EQ(seg.Segment(raw.video.frame(2), 2),
            seg.Segment(raw.video.frame(2), 2));
}

TEST(NoisyOracleTest, ThrowsOnBadIndex) {
  const auto raw = SmallRecording(synth::ActionKind::kStill);
  NoisyOracleSegmenter seg(raw.caller_masks, NoisyOracleParams{}, 5);
  EXPECT_THROW(seg.Segment(raw.video.frame(0), -1), std::out_of_range);
  EXPECT_THROW(seg.Segment(raw.video.frame(0), raw.video.frame_count()),
               std::out_of_range);
}

TEST(ClassicalSegmenterTest, FindsTheCallerWithoutGroundTruth) {
  const auto raw = SmallRecording(synth::ActionKind::kArmWave);
  // Run on the *composited* call like a real post-processing attacker.
  const vbg::StaticImageSource vb(
      vbg::MakeStockImage(vbg::StockImage::kGradient, 96, 72));
  const auto call = vbg::ApplyVirtualBackground(raw, vb);

  ClassicalSegmenter seg;
  Analyze(seg, call.video);
  double iou_sum = 0.0;
  int n = 0;
  // Skip warm-up frames where the matting itself is unsettled.
  for (int i = 8; i < call.video.frame_count(); ++i) {
    iou_sum += imaging::Iou(seg.Segment(call.video.frame(i), i),
                            raw.caller_masks[static_cast<std::size_t>(i)]);
    ++n;
  }
  // Motion + color-growth segmentation overshoots around a static torso
  // and occasionally locks onto a leak trail; it is the documented-weaker
  // no-oracle fallback (DESIGN.md). Chance IoU for a ~22%-of-frame figure
  // is ~0.12; the oracle substitute scores ~0.95.
  EXPECT_GT(iou_sum / n, 0.16);
}

TEST(ClassicalSegmenterTest, MaskIsOneBlob) {
  const auto raw = SmallRecording(synth::ActionKind::kStill);
  const vbg::StaticImageSource vb(
      vbg::MakeStockImage(vbg::StockImage::kBeach, 96, 72));
  const auto call = vbg::ApplyVirtualBackground(raw, vb);
  ClassicalSegmenter seg;
  Analyze(seg, call.video);
  const Bitmap mask = seg.Segment(call.video.frame(10), 10);
  EXPECT_GT(imaging::CountSet(mask), 100u);
}

}  // namespace
}  // namespace bb::segmentation
