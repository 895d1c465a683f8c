// Video caller masking (paper sec. V-D).
//
// VCM = person segmentation (DeepLabv3 in the paper; a PersonSegmenter
// substitute here) refined by a statistical color-frequency correction:
// colors that appear with very low frequency inside the caller region
// across the whole call are presumed to be leaked background mistakenly
// kept by the segmenter, and those pixels are flipped out of the VCM.
// The paper's rationale: a leaked background pixel keeps the same color
// whenever it leaks, while true caller-boundary pixels vary as the caller
// moves - so leak colors are rare *within* the caller region but
// persistent, and statistically contrast with the caller's palette.
//
// CallerMasker holds only the call-wide color model and the refinement.
// The streaming core's caller pass (core/streaming.h) runs the segmenter
// once per frame, in parallel over each window: every frame shard counts
// its colors into its own CallerColorCounts, the shards fold into the
// masker in shard order, and the raw masks wait in a MaskStore
// (core/mask_store.h) until the decomposition pass refines them.
#pragma once

#include <cstdint>
#include <vector>

#include "imaging/image.h"

namespace bb::core {

struct CallerMaskingOptions {
  // A color bucket whose relative frequency inside the segmented caller
  // region (over the whole call) is below this is treated as leaked
  // background.
  double rare_color_frequency = 0.0025;
  // Never flip pixels deeper than this inside the segmenter mask; the
  // correction targets the uncertain boundary band.
  double protect_core_px = 4.0;
};

// Integer color-bucket counts of the pixels a segmenter kept as caller.
// Integer counts add exactly in any order, so per-shard counts fold into
// the same color model at any thread count.
struct CallerColorCounts {
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;

  CallerColorCounts();
  // Counts the colors of `frame` under `mask`.
  void Add(const imaging::Image& frame, const imaging::Bitmap& mask);
  // Element-wise `this += other`.
  void Add(const CallerColorCounts& other);
};

class CallerMasker {
 public:
  explicit CallerMasker(const CallerMaskingOptions& opts = {});

  // Call-wide color statistics: BeginPrepare(), then Fold() every frame
  // shard's counts, then EndPrepare(). Refine() is usable afterwards.
  void BeginPrepare();
  void Fold(const CallerColorCounts& shard);
  void EndPrepare();

  // Refines a raw segmenter mask into the VCM for `frame`. Thread-safe once
  // preparation is complete; std::logic_error before.
  imaging::Bitmap Refine(const imaging::Image& frame,
                         const imaging::Bitmap& raw) const;

 private:
  CallerMaskingOptions opts_;
  CallerColorCounts colors_;
  bool stats_ready_ = false;
};

}  // namespace bb::core
