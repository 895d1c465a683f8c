#include "core/caller_masking.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "imaging/draw.h"
#include "video/video.h"

namespace bb::core {
namespace {

using imaging::Bitmap;
using imaging::Image;

// A call where the "caller" is a blue square but the segmenter's mask also
// swallows a strip of green background on the right.
struct Fixture {
  video::VideoStream call{10.0};
  Bitmap over_mask{48, 32};

  Fixture() {
    imaging::FillRect(over_mask, {10, 8, 24, 16});  // includes green strip
    for (int i = 0; i < 12; ++i) {
      Image f(48, 32, {210, 210, 210});
      imaging::FillRect(f, {10, 8, 20, 16}, {30, 40, 180});  // caller (blue)
      imaging::FillRect(f, {30, 8, 4, 16}, {40, 170, 60});   // leak (green)
      call.Append(std::move(f));
    }
  }
};

// The caller pass's color model over the whole fixture call, counted in
// `shards` contiguous frame shards and folded in shard order.
CallerMasker Prepared(const Fixture& f, const CallerMaskingOptions& opts,
                      int shards = 1) {
  CallerMasker masker(opts);
  masker.BeginPrepare();
  const int n = f.call.frame_count();
  for (int s = 0; s < shards; ++s) {
    CallerColorCounts counts;
    for (int i = n * s / shards; i < n * (s + 1) / shards; ++i) {
      counts.Add(f.call.frame(i), f.over_mask);
    }
    masker.Fold(counts);
  }
  masker.EndPrepare();
  return masker;
}

TEST(CallerMaskingTest, RefinementDropsRareColors) {
  Fixture f;
  CallerMaskingOptions opts;
  opts.rare_color_frequency = 0.25;  // green strip is ~17% of mask: rare
  opts.protect_core_px = 2.0;
  const CallerMasker masker = Prepared(f, opts);
  const Bitmap vcm = masker.Refine(f.call.frame(0), f.over_mask);
  // Blue core retained.
  EXPECT_TRUE(vcm(15, 15));
  // Green strip at the mask boundary flipped out.
  EXPECT_FALSE(vcm(32, 15));
}

TEST(CallerMaskingTest, CoreIsProtectedFromFlipping) {
  Fixture f;
  CallerMaskingOptions opts;
  opts.rare_color_frequency = 1.1;  // everything is "rare"
  opts.protect_core_px = 5.0;
  const CallerMasker masker = Prepared(f, opts);
  const Bitmap vcm = masker.Refine(f.call.frame(0), f.over_mask);
  // Deep interior survives even an absurd threshold.
  EXPECT_TRUE(vcm(20, 16));
  // Boundary does not.
  EXPECT_FALSE(vcm(10, 8));
}

TEST(CallerMaskingTest, DisabledRefinementKeepsRawMask) {
  Fixture f;
  CallerMaskingOptions opts;
  opts.rare_color_frequency = 0.0;
  const CallerMasker masker = Prepared(f, opts);
  EXPECT_EQ(masker.Refine(f.call.frame(3), f.over_mask), f.over_mask);
}

TEST(CallerMaskingTest, ThrowsWhenNotPrepared) {
  Fixture f;
  CallerMasker masker;
  EXPECT_THROW(masker.Refine(f.call.frame(0), f.over_mask), std::logic_error);
  masker.BeginPrepare();
  EXPECT_THROW(masker.Refine(f.call.frame(0), f.over_mask), std::logic_error);
}

}  // namespace
}  // namespace bb::core
