// Allocation pin for ClassicalSegmenter::Segment. Its intermediate masks,
// color counts, disc planes and component runs live in scratch that
// persists on each thread, so once a thread has segmented frames of a
// shape, segmenting another allocates only the mask it returns. This test
// binary links the counting allocator (tests/common/counting_allocator.cpp),
// which replaces the global operator new for the whole process, so it runs
// on its own.
#include <gtest/gtest.h>

#include <cstdint>

#include "../common/counting_allocator.h"
#include "imaging/image.h"
#include "segmentation/segmenter.h"
#include "synth/recorder.h"
#include "vbg/compositor.h"
#include "vbg/virtual_source.h"
#include "video/video.h"

namespace bb::segmentation {
namespace {

// The bound: the returned mask's storage plus one block of slack, and no
// more bytes than that mask and 1 KiB. The segmenter once made about 137
// allocations (1.16 MB) per 192x144 frame.
constexpr std::uint64_t kMaxBlocks = 2;
constexpr std::uint64_t kSlackBytes = 1024;

TEST(SegmentAllocationTest, WarmedCallAllocatesOnlyTheReturnedMask) {
  synth::RecordingSpec spec;
  spec.scene.width = 192;
  spec.scene.height = 144;
  spec.action.kind = synth::ActionKind::kArmWave;
  spec.fps = 8.0;
  spec.duration_s = 2.0;
  spec.seed = 5;
  const auto raw = synth::RecordCall(spec);
  const auto call = vbg::ApplyVirtualBackground(
      raw, vbg::StaticImageSource(
               vbg::MakeStockImage(vbg::StockImage::kOffice, 192, 144)));
  const video::VideoStream& video = call.video;

  ClassicalSegmenter seg;
  const video::StreamInfo info{video.width(), video.height(),
                               video.frame_count(), video.fps()};
  for (int pass = 0; pass < seg.AnalysisPasses(); ++pass) {
    seg.BeginAnalysisPass(pass, info);
    for (int i = 0; i < video.frame_count(); ++i) {
      seg.PushAnalysisFrame(pass, video.frame(i), i);
    }
    seg.EndAnalysisPass(pass);
  }
  // Warm this thread's scratch on every frame once.
  std::size_t warm_set = 0;
  for (int i = 0; i < video.frame_count(); ++i) {
    warm_set += imaging::CountSet(seg.Segment(video.frame(i), i));
  }
  ASSERT_GT(warm_set, 0u);

  const std::uint64_t mask_bytes = 192u * 144u;
  for (int i = 0; i < video.frame_count(); ++i) {
    const std::uint64_t blocks = counting_allocator::Allocations();
    const std::uint64_t bytes = counting_allocator::AllocatedBytes();
    const imaging::Bitmap mask = seg.Segment(video.frame(i), i);
    const std::uint64_t used_blocks =
        counting_allocator::Allocations() - blocks;
    const std::uint64_t used_bytes =
        counting_allocator::AllocatedBytes() - bytes;
    EXPECT_EQ(mask.pixel_count(), mask_bytes);
    EXPECT_LE(used_blocks, kMaxBlocks) << "frame " << i;
    EXPECT_LE(used_bytes, mask_bytes + kSlackBytes) << "frame " << i;
  }
}

}  // namespace
}  // namespace bb::segmentation
