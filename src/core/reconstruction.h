// The real background reconstruction framework (paper sec. V, Fig. 4).
//
// Per frame f^i of the recorded call:
//   VBM^i  <- virtual background masking   (vb_masking.h)
//   BBM^i  <- blending blur masking        (blur_masking.h, radius phi)
//   VCM^i  <- video caller masking         (caller_masking.h)
//   LB^i   = f^i minus (VBM | BBM | VCM)   - residue = leaked background
// The LB residues of all frames are combined into a partial reconstruction
// of the real background.
#pragma once

#include <vector>

#include "core/blur_masking.h"
#include "core/caller_masking.h"
#include "core/vb_masking.h"
#include "imaging/image.h"
#include "segmentation/segmenter.h"
#include "video/video.h"

namespace bb::core {

struct ReconstructionOptions {
  double phi = kDefaultPhi;
  VbMaskingOptions vb;
  CallerMaskingOptions caller;
  // Color-stability filter (the paper's Color Analysis, sec. V-D): a truly
  // leaked background pixel keeps the same color every time it leaks, while
  // caller-boundary pixels vary as the caller moves. Pixels whose observed
  // leak values spread (per-channel std-dev) beyond this are dropped from
  // the reconstruction. <= 0 disables the filter.
  double max_color_spread = 30.0;
  // Minimum number of frames a pixel must leak in to enter the
  // reconstruction. 1 keeps everything; 2 discards one-off boundary noise.
  int min_leak_count = 2;
  // Keep per-frame decompositions in the result (memory-heavy; useful for
  // visualization and tests).
  bool keep_frame_masks = false;
};

// The four conceptual components of one blended frame (paper Fig. 3).
struct FrameDecomposition {
  imaging::Bitmap vbm;  // virtual background
  imaging::Bitmap bbm;  // blending blur (superset of vbm by construction)
  imaging::Bitmap vcm;  // video caller
  imaging::Bitmap lb;   // leaked background residue
};

struct ReconstructionResult {
  // Mean of the leaked values observed at each recovered pixel.
  imaging::Image background;
  // Pixels recovered in at least one frame.
  imaging::Bitmap coverage;
  // Number of frames in which each pixel leaked.
  imaging::ImageT<int> leak_counts;
  // Per-frame fraction of the frame classified as leaked background.
  std::vector<double> per_frame_leak_fraction;
  // Optional per-frame masks (see ReconstructionOptions::keep_frame_masks).
  std::vector<FrameDecomposition> frame_masks;

  // Fraction of all pixels recovered at least once ("claimed" coverage; the
  // verified variant lives in metrics.h because it needs ground truth).
  double CoverageFraction() const {
    return imaging::SetFraction(coverage);
  }
};

class Reconstructor {
 public:
  // `reference` identifies/derives the VB; `segmenter` supplies the person
  // masks. Both are borrowed and must outlive the Reconstructor.
  Reconstructor(const VbReference& reference,
                segmentation::PersonSegmenter& segmenter,
                const ReconstructionOptions& opts = {});

  // Full pipeline over every frame of the call. Thin batch-compat wrapper
  // over the streaming core (streaming.h) with window = call length, which
  // makes it bit-identical to the pre-streaming implementation. Per-frame
  // decompositions come back with opts.keep_frame_masks.
  ReconstructionResult Run(const video::VideoStream& call);

  const ReconstructionOptions& options() const { return opts_; }

 private:
  const VbReference& reference_;
  segmentation::PersonSegmenter& segmenter_;
  ReconstructionOptions opts_;
};

}  // namespace bb::core
