// Negative-path tests: the framework must fail loudly and predictably on
// malformed inputs rather than silently producing garbage (Core Guidelines
// E.* - exceptions for programming errors, no partial results).
#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/reconstruction.h"
#include "core/vb_masking.h"
#include "segmentation/segmenter.h"
#include "vbg/compositor.h"

namespace bb::core {
namespace {

using imaging::Bitmap;
using imaging::Image;

TEST(ErrorHandlingTest, ComputeVbmRejectsShapeMismatches) {
  const Image frame(8, 8);
  const Image ref_ok(8, 8);
  const Bitmap valid_ok(8, 8, imaging::kMaskSet);
  EXPECT_THROW(ComputeVbm(frame, Image(9, 8), valid_ok, 4),
               std::invalid_argument);
  EXPECT_THROW(ComputeVbm(frame, ref_ok, Bitmap(8, 9), 4),
               std::invalid_argument);
}

TEST(ErrorHandlingTest, RbrrRejectsShapeMismatch) {
  ReconstructionResult rec;
  rec.background = Image(8, 8);
  rec.coverage = Bitmap(8, 8);
  EXPECT_THROW(Rbrr(rec, Image(9, 8)), std::invalid_argument);
}

TEST(ErrorHandlingTest, VbmrRejectsShapeMismatch) {
  FrameDecomposition d;
  d.bbm = Bitmap(8, 8);
  d.vcm = Bitmap(8, 8);
  EXPECT_THROW(Vbmr(d, Bitmap(4, 4)), std::invalid_argument);
}

TEST(ErrorHandlingTest, OracleSegmenterRejectsLongerCalls) {
  // An oracle prepared for a 3-frame call must refuse frame 3 of a longer
  // one instead of recycling masks.
  video::VideoStream call(8.0);
  std::vector<Bitmap> masks;
  for (int i = 0; i < 4; ++i) {
    call.Append(Image(16, 12));
    if (i < 3) masks.emplace_back(16, 12);
  }
  segmentation::NoisyOracleSegmenter seg(std::move(masks), {}, 1);
  EXPECT_NO_THROW(seg.Segment(call.frame(2), 2));
  EXPECT_THROW(seg.Segment(call.frame(3), 3), std::out_of_range);
}

TEST(ErrorHandlingTest, ReconstructorSurfacesSegmenterFailures) {
  // Run() must propagate, not swallow, a failing segmenter.
  video::VideoStream call(8.0);
  for (int i = 0; i < 3; ++i) call.Append(Image(16, 12, {10, 10, 10}));
  const VbReference ref = VbReference::KnownImage(Image(16, 12, {10, 10, 10}));
  segmentation::NoisyOracleSegmenter empty_oracle({}, {}, 1);
  Reconstructor rc(ref, empty_oracle);
  EXPECT_THROW(rc.Run(call), std::out_of_range);
}

TEST(ErrorHandlingTest, ReconstructorRejectsMismatchedReference) {
  // Reference resolution differs from the call's: the VBM stage throws.
  video::VideoStream call(8.0);
  for (int i = 0; i < 3; ++i) call.Append(Image(16, 12));
  const VbReference ref = VbReference::KnownImage(Image(20, 12));
  std::vector<Bitmap> masks(3, Bitmap(16, 12));
  segmentation::NoisyOracleSegmenter seg(std::move(masks), {}, 1);
  Reconstructor rc(ref, seg);
  EXPECT_THROW(rc.Run(call), std::invalid_argument);
}

TEST(ErrorHandlingTest, CompositorRejectsMismatchedVbResolution) {
  synth::RecordingSpec spec;
  spec.scene.width = 32;
  spec.scene.height = 24;
  spec.fps = 8.0;
  spec.duration_s = 0.5;
  const auto raw = synth::RecordCall(spec);
  const vbg::StaticImageSource vb(
      vbg::MakeStockImage(vbg::StockImage::kBeach, 48, 24));
  EXPECT_THROW(vbg::ApplyVirtualBackground(raw, vb), std::invalid_argument);
}

}  // namespace
}  // namespace bb::core
