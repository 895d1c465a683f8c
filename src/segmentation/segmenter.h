// Person segmentation - the DeepLabv3 substitute.
//
// The paper generates the video-caller mask VCM with DeepLabv3 (sec. V-D),
// run offline on the recorded call. No pretrained network is available
// here, so two substitutes cover the same role:
//   * NoisyOracleSegmenter - degrades the ground-truth caller silhouette to
//     a configurable accuracy (default ~DeepLabv3-class IoU). Used by the
//     benches so the VCM quality is a controlled variable.
//   * ClassicalSegmenter   - a real segmenter with no oracle access: finds
//     the dynamic region of the call video, then refines it with a color
//     model. Proves the pipeline works end-to-end without ground truth.
//
// Segmenters are streaming-native: any whole-call statistics are gathered
// through the analysis-pass protocol (sequential passes of per-frame pushes
// with O(1) frame state), after which Segment() masks a single frame.
// Segment() must be safe to call concurrently once the analysis passes have
// completed: the streaming core (core/streaming.h) drives the protocol and
// then segments each frame exactly once, in parallel over a window.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "imaging/image.h"
#include "video/frame_source.h"
#include "video/temporal.h"

namespace bb::segmentation {

class PersonSegmenter {
 public:
  virtual ~PersonSegmenter() = default;

  // Number of sequential whole-stream passes the segmenter needs before
  // Segment() works (0 = stateless). For each pass p in order, the driver
  // calls BeginAnalysisPass(p, info), pushes every frame in order, then
  // EndAnalysisPass(p).
  virtual int AnalysisPasses() const { return 0; }
  virtual void BeginAnalysisPass(int pass, const video::StreamInfo& info) {
    (void)pass;
    (void)info;
  }
  virtual void PushAnalysisFrame(int pass, const imaging::Image& frame,
                                 int frame_index) {
    (void)pass;
    (void)frame;
    (void)frame_index;
  }
  virtual void EndAnalysisPass(int pass) { (void)pass; }

  // Estimated caller mask for one frame. Requires the analysis passes (if
  // any) to have run; thread-safe afterwards.
  virtual imaging::Bitmap Segment(const imaging::Image& frame,
                                  int frame_index) = 0;
};

struct NoisyOracleParams {
  // Std-dev of the smooth boundary displacement, pixels. ~1.0 yields
  // IoU ~0.95 on 144p figures (DeepLabv3-class).
  double boundary_noise_px = 1.0;
  int noise_cell_px = 10;
  // The paper notes DeepLabv3's characteristic misses: background regions
  // under the head / between fingers kept as person. The oracle emulates
  // this by dilating concave pockets: probability of including a background
  // pixel that is surrounded by caller pixels.
  double pocket_inclusion = 0.5;
  double pocket_reach_px = 3.0;
};

class NoisyOracleSegmenter final : public PersonSegmenter {
 public:
  NoisyOracleSegmenter(std::vector<imaging::Bitmap> true_masks,
                       const NoisyOracleParams& params, std::uint64_t seed);

  imaging::Bitmap Segment(const imaging::Image& frame,
                          int frame_index) override;

 private:
  std::vector<imaging::Bitmap> true_masks_;
  NoisyOracleParams params_;
  std::uint64_t seed_;
};

struct ClassicalSegmenterParams {
  // A pixel belongs to the dynamic (caller) region when it deviates from
  // the static layer in at least this fraction of frames.
  double dynamic_fraction = 0.25;
  int channel_tolerance = 14;
  // Color-model refinement: pixels in the dynamic region whose color bucket
  // is rare inside the region's confident core are dropped.
  double rare_color_frequency = 0.004;
  double core_erode_px = 3.0;
  std::size_t min_island_area = 24;
};

class ClassicalSegmenter final : public PersonSegmenter {
 public:
  explicit ClassicalSegmenter(const ClassicalSegmenterParams& params = {});

  // Two streaming passes: static-layer accumulation, then per-pixel
  // dynamic-deviation scoring against that layer.
  int AnalysisPasses() const override { return 2; }
  void BeginAnalysisPass(int pass, const video::StreamInfo& info) override;
  void PushAnalysisFrame(int pass, const imaging::Image& frame,
                         int frame_index) override;
  void EndAnalysisPass(int pass) override;

  imaging::Bitmap Segment(const imaging::Image& frame,
                          int frame_index) override;

 private:
  ClassicalSegmenterParams params_;
  bool prepared_ = false;
  int frame_count_ = 0;
  std::optional<video::StaticLayerAccumulator> layer_acc_;
  imaging::Image static_layer_;
  // Per-pixel count of deviating frames (pass 1), then the pixels whose
  // count reaches dynamic_fraction of the call.
  imaging::FloatImage dynamic_score_;
  imaging::Bitmap dynamic_;
};

}  // namespace bb::segmentation
