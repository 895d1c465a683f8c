#include "segmentation/segmenter.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "imaging/color.h"
#include "imaging/connected_components.h"
#include "imaging/filter.h"
#include "imaging/histogram.h"
#include "imaging/kernels/kernels.h"
#include "imaging/morphology.h"
#include "synth/rng.h"
#include "vbg/noise_field.h"
#include "video/temporal.h"

namespace bb::segmentation {

using imaging::Bitmap;
using imaging::FloatImage;
using imaging::Image;

NoisyOracleSegmenter::NoisyOracleSegmenter(
    std::vector<imaging::Bitmap> true_masks, const NoisyOracleParams& params,
    std::uint64_t seed)
    : true_masks_(std::move(true_masks)), params_(params), seed_(seed) {}

Bitmap NoisyOracleSegmenter::Segment(const Image& frame, int frame_index) {
  if (frame_index < 0 ||
      frame_index >= static_cast<int>(true_masks_.size())) {
    throw std::out_of_range("NoisyOracleSegmenter::Segment");
  }
  const Bitmap& truth = true_masks_[static_cast<std::size_t>(frame_index)];
  (void)frame;

  // Per-frame deterministic noise stream.
  synth::Rng rng(seed_ ^ (static_cast<std::uint64_t>(frame_index) * 0x9E37u));
  const int w = truth.width(), h = truth.height();

  const FloatImage dist_out = imaging::SquaredDistanceToSet(truth);
  const FloatImage dist_in =
      imaging::SquaredDistanceToSet(imaging::Not(truth));
  vbg::NoiseField noise(w, h, params_.noise_cell_px, rng);

  Bitmap est(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const double signed_d = truth(x, y) ? -std::sqrt(dist_in(x, y))
                                          : std::sqrt(dist_out(x, y));
      if (signed_d <= noise.At(x, y) * params_.boundary_noise_px) {
        est(x, y) = imaging::kMaskSet;
      }
    }
  }

  // Concave pockets (under chin, between arm and torso): a closing absorbs
  // them; apply probabilistically so some pockets survive.
  if (params_.pocket_inclusion > 0.0 && params_.pocket_reach_px > 0.0) {
    const Bitmap closed = imaging::CloseDisc(truth, params_.pocket_reach_px);
    const Bitmap pockets = imaging::AndNot(closed, truth);
    vbg::NoiseField pocket_noise(w, h, params_.noise_cell_px, rng);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        if (!pockets(x, y)) continue;
        if (pocket_noise.At(x, y) * 0.5 + 0.5 < params_.pocket_inclusion) {
          est(x, y) = imaging::kMaskSet;
        }
      }
    }
  }
  return est;
}

ClassicalSegmenter::ClassicalSegmenter(const ClassicalSegmenterParams& params)
    : params_(params) {}

void ClassicalSegmenter::BeginAnalysisPass(int pass,
                                           const video::StreamInfo& info) {
  if (pass == 0) {
    // Static layer = best per-pixel estimate of the non-moving content (VB +
    // never-moving background); the caller is whatever keeps deviating.
    prepared_ = false;
    frame_count_ = info.frame_count;
    layer_acc_.emplace(
        video::ConsistencyOptions{params_.channel_tolerance});
  } else {
    dynamic_score_ = FloatImage(info.width, info.height, 0.0f);
  }
}

void ClassicalSegmenter::PushAnalysisFrame(int pass, const Image& frame,
                                           int frame_index) {
  (void)frame_index;
  if (pass == 0) {
    layer_acc_->Push(frame);
    return;
  }
  auto pf = frame.pixels();
  auto ps = static_layer_.pixels();
  auto pd = dynamic_score_.pixels();
  // bblint: allow(no-per-pixel-loop) -- accumulates a cross-frame float score plane; stateful, not a kernel
  for (std::size_t k = 0; k < pd.size(); ++k) {
    if (!imaging::NearlyEqual(pf[k], ps[k], params_.channel_tolerance)) {
      pd[k] += 1.0f;
    }
  }
}

void ClassicalSegmenter::EndAnalysisPass(int pass) {
  if (pass == 0) {
    static_layer_ =
        layer_acc_->Finalize(std::max(3, frame_count_ / 4)).color;
    layer_acc_.reset();
  } else {
    // Segment() only ever asks whether a pixel's score reaches the
    // threshold, so the answer is taken once, as a mask.
    dynamic_ = Bitmap(dynamic_score_.width(), dynamic_score_.height());
    imaging::kernels::ThresholdGE(
        dynamic_score_.pixels(),
        static_cast<float>(params_.dynamic_fraction * frame_count_),
        dynamic_.pixels());
    dynamic_score_ = FloatImage();
    prepared_ = true;
  }
}

namespace {

// Segment()'s intermediate masks and color counts. They persist on each
// thread across frames, so a warmed call allocates only the mask it
// returns; Segment() runs concurrently on pool workers, each with its own.
// Each mask buffer takes the next intermediate once the one it held is no
// longer read, so three cover the whole step.
struct SegmentScratch {
  Bitmap a, b, c;
  imaging::ColorFrequency colors;
};

SegmentScratch& ThreadScratch() {
  thread_local SegmentScratch scratch;
  return scratch;
}

}  // namespace

Bitmap ClassicalSegmenter::Segment(const Image& frame, int frame_index) {
  (void)frame_index;
  if (!prepared_) {
    throw std::logic_error("ClassicalSegmenter: analysis passes not run");
  }
  imaging::RequireSameShape(frame, static_layer_,
                            "ClassicalSegmenter::Segment");
  const int w = frame.width(), h = frame.height();
  SegmentScratch& s = ThreadScratch();
  imaging::ColorFrequency& colors = s.colors;

  // Candidate caller pixels: deviate from the static layer NOW and belong to
  // a generally dynamic region.
  Bitmap& candidate = s.a;
  candidate.Reshape(w, h);
  imaging::kernels::MismatchMask(frame.pixels(), static_layer_.pixels(),
                                 dynamic_.pixels(), params_.channel_tolerance,
                                 candidate.pixels());
  imaging::CloseDisc(candidate, 2.0, &candidate);
  // The largest island, unless even it is too small to trust.
  Bitmap& seed = s.b;
  imaging::LargestComponent(candidate, params_.min_island_area, &seed);
  if (imaging::CountSet(seed) < 16) return seed;

  // The motion cue only finds the MOVING parts of the caller; a torso that
  // never moves is absorbed into the static layer. Grow the seed over
  // pixels sharing the seed's palette (apparel/skin colors), the way a
  // semantic segmenter would keep the whole person.
  Bitmap& seed_core = s.a;
  imaging::ErodeDisc(seed, 1.5, &seed_core);
  colors.Clear();
  colors.AddMasked(frame,
                   imaging::CountSet(seed_core) > 32 ? seed_core : seed);
  const std::uint64_t palette_min = imaging::ColorFrequency::MinCount(
      colors.total(),
      [&](std::uint64_t n) { return colors.FrequencyOfCount(n) >= 0.03; });
  // Growth is limited to the seed's neighbourhood: a person is one
  // connected region, so palette-colored pixels across the frame (e.g. a
  // virtual background sharing the shirt's hue) must not be absorbed. The
  // reach holds the seed, so the grown mask does too.
  Bitmap& reach = s.a;
  imaging::DilateDisc(seed, h / 3.0, &reach);
  Bitmap& grown = s.c;
  grown.Reshape(w, h);
  imaging::kernels::ColorCountSelect(frame.pixels(), colors.counts(),
                                     palette_min, reach.pixels(),
                                     seed.pixels(), grown.pixels());
  imaging::CloseDisc(grown, 2.0, &grown);
  // Keep only the grown regions attached to the moving seed.
  Bitmap& body = s.a;
  imaging::ComponentsOverlapping(grown, seed, &body);

  // Color-model refinement: drop boundary pixels whose color is rare in the
  // confident core (leaked background trapped at the rim).
  Bitmap& core = s.b;
  imaging::ErodeDisc(body, params_.core_erode_px, &core);
  if (imaging::CountSet(core) <= 32) return body;
  colors.Clear();
  colors.AddMasked(frame, core);
  const double rare = params_.rare_color_frequency;
  const std::uint64_t common_min = imaging::ColorFrequency::MinCount(
      colors.total(),
      [&](std::uint64_t n) { return !(colors.FrequencyOfCount(n) < rare); });
  Bitmap& refined = s.c;
  imaging::kernels::ColorCountSelect(frame.pixels(), colors.counts(),
                                     common_min, body.pixels(),
                                     core.pixels(), refined.pixels());
  imaging::CloseDisc(refined, 1.0, &refined);
  return refined;
}

}  // namespace bb::segmentation
