#include "core/reconstruction.h"

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "imaging/draw.h"
#include "segmentation/segmenter.h"
#include "synth/recorder.h"
#include "vbg/compositor.h"

namespace bb::core {
namespace {

using imaging::Bitmap;
using imaging::Image;

struct PipelineFixture {
  synth::RawRecording raw;
  vbg::CompositedCall call;
  Image vb_image;

  explicit PipelineFixture(synth::ActionKind action =
                               synth::ActionKind::kArmWave,
                           std::uint64_t seed = 50) {
    synth::RecordingSpec spec;
    spec.scene.width = 96;
    spec.scene.height = 72;
    spec.action.kind = action;
    spec.fps = 10.0;
    spec.duration_s = 6.0;
    spec.seed = seed;
    raw = synth::RecordCall(spec);
    vb_image = vbg::MakeStockImage(vbg::StockImage::kBeach, 96, 72);
    const vbg::StaticImageSource vb(vb_image);
    call = vbg::ApplyVirtualBackground(raw, vb);
  }
};

TEST(ReconstructorTest, RecoversMostOfWhatLeaked) {
  PipelineFixture f;
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);
  Reconstructor rc(ref, seg);
  const ReconstructionResult rec = rc.Run(f.call.video);

  Bitmap leak_union(96, 72);
  for (const auto& m : f.call.leak_masks) {
    leak_union = imaging::Or(leak_union, m);
  }
  // Recall: most genuinely leaked pixels are claimed.
  const double leaked = imaging::SetFraction(leak_union);
  ASSERT_GT(leaked, 0.02);
  const double recalled =
      imaging::SetFraction(imaging::And(rec.coverage, leak_union)) / leaked;
  EXPECT_GT(recalled, 0.7);
}

TEST(ReconstructorTest, RecoveredPixelsMatchTrueBackground) {
  PipelineFixture f;
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);
  Reconstructor rc(ref, seg);
  const ReconstructionResult rec = rc.Run(f.call.video);
  const RbrrResult rbrr = Rbrr(rec, f.raw.true_background);
  EXPECT_GT(rbrr.verified, 0.05);
  EXPECT_GT(rbrr.precision, 0.6);
}

TEST(ReconstructorTest, ColorSpreadFilterImprovesPrecision) {
  PipelineFixture f;
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);
  ReconstructionOptions strict;
  ReconstructionOptions loose;
  loose.max_color_spread = 0.0;
  loose.min_leak_count = 1;
  Reconstructor rc_strict(ref, seg);
  segmentation::NoisyOracleSegmenter seg2(f.raw.caller_masks, {}, 7);
  Reconstructor rc_loose(ref, seg2, loose);
  const auto rbrr_strict =
      Rbrr(rc_strict.Run(f.call.video), f.raw.true_background);
  const auto rbrr_loose =
      Rbrr(rc_loose.Run(f.call.video), f.raw.true_background);
  EXPECT_GT(rbrr_strict.precision, rbrr_loose.precision);
  // The loose variant claims at least as much.
  EXPECT_GE(rbrr_loose.claimed, rbrr_strict.claimed);
}

TEST(ReconstructorTest, DecomposeComponentsAreDisjointFromLb) {
  PipelineFixture f;
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);
  ReconstructionOptions opts;
  opts.keep_frame_masks = true;
  Reconstructor rc(ref, seg, opts);
  const FrameDecomposition d = rc.Run(f.call.video).frame_masks[20];
  // LB excludes every other component (paper Fig. 3: non-overlapping).
  EXPECT_EQ(imaging::CountSet(imaging::And(d.lb, d.bbm)), 0u);
  EXPECT_EQ(imaging::CountSet(imaging::And(d.lb, d.vcm)), 0u);
  // BBM contains VBM.
  EXPECT_EQ(imaging::CountSet(imaging::AndNot(d.vbm, d.bbm)), 0u);
  // Everything is accounted for: lb | bbm | vcm covers the frame.
  const Bitmap covered = imaging::Or(imaging::Or(d.lb, d.bbm), d.vcm);
  EXPECT_EQ(imaging::CountSet(covered), covered.pixel_count());
}

TEST(ReconstructorTest, KeepFrameMasksStoresPerFrameData) {
  PipelineFixture f;
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);
  ReconstructionOptions opts;
  opts.keep_frame_masks = true;
  Reconstructor rc(ref, seg, opts);
  const ReconstructionResult rec = rc.Run(f.call.video);
  EXPECT_EQ(static_cast<int>(rec.frame_masks.size()),
            f.call.video.frame_count());
  EXPECT_EQ(static_cast<int>(rec.per_frame_leak_fraction.size()),
            f.call.video.frame_count());
}

TEST(ReconstructorTest, InitialFramesLeakMore) {
  // Paper Fig. 5: the first frames of a call leak heavily.
  PipelineFixture f(synth::ActionKind::kStill);
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);
  Reconstructor rc(ref, seg);
  const ReconstructionResult rec = rc.Run(f.call.video);
  double early = 0.0, late = 0.0;
  for (int i = 0; i < 5; ++i) early += rec.per_frame_leak_fraction[i];
  for (int i = 30; i < 35; ++i) late += rec.per_frame_leak_fraction[i];
  EXPECT_GT(early, late * 1.5);
}

TEST(ReconstructorTest, DerivedReferenceAlsoWorks) {
  PipelineFixture f;
  const VbReference ref = VbReference::DeriveImage(f.call.video);
  segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);
  Reconstructor rc(ref, seg);
  const ReconstructionResult rec = rc.Run(f.call.video);
  const RbrrResult rbrr = Rbrr(rec, f.raw.true_background);
  EXPECT_GT(rbrr.verified, 0.03);
}

TEST(ReconstructorTest, WorksWithKnownLoopingVideoVb) {
  synth::RecordingSpec spec;
  spec.scene.width = 96;
  spec.scene.height = 72;
  spec.action.kind = synth::ActionKind::kArmWave;
  spec.fps = 10.0;
  spec.duration_s = 6.0;
  spec.seed = 50;
  const auto raw = synth::RecordCall(spec);
  auto frames = vbg::MakeStockVideo(vbg::StockVideo::kStars, 96, 72, 6);
  const vbg::LoopingVideoSource vb(frames);
  const auto call = vbg::ApplyVirtualBackground(raw, vb);

  const VbReference ref = VbReference::KnownVideo(frames);
  segmentation::NoisyOracleSegmenter seg(raw.caller_masks, {}, 7);
  Reconstructor rc(ref, seg);
  const auto rec = rc.Run(call.video);
  const auto rbrr = core::Rbrr(rec, raw.true_background);
  EXPECT_GT(rbrr.verified, 0.05);
  // Video VBs are noisier to mask than images (per-frame phase selection,
  // animated pixels); precision sits below the static-image case.
  EXPECT_GT(rbrr.precision, 0.35);
}

TEST(ReconstructorTest, CoverageFractionMatchesCoverageMask) {
  PipelineFixture f;
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);
  Reconstructor rc(ref, seg);
  const ReconstructionResult rec = rc.Run(f.call.video);
  EXPECT_DOUBLE_EQ(rec.CoverageFraction(),
                   imaging::SetFraction(rec.coverage));
}

}  // namespace
}  // namespace bb::core
