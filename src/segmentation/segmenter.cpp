#include "segmentation/segmenter.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "imaging/color.h"
#include "imaging/connected_components.h"
#include "imaging/filter.h"
#include "imaging/histogram.h"
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
    prepared_ = true;
  }
}

Bitmap ClassicalSegmenter::Segment(const Image& frame, int frame_index) {
  (void)frame_index;
  if (!prepared_) {
    throw std::logic_error("ClassicalSegmenter: analysis passes not run");
  }
  const int w = frame.width(), h = frame.height();
  const float dyn_threshold =
      static_cast<float>(params_.dynamic_fraction * frame_count_);

  // Candidate caller pixels: deviate from the static layer NOW and belong to
  // a generally dynamic region.
  Bitmap candidate(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const bool deviates_now = !imaging::NearlyEqual(
          frame(x, y), static_layer_(x, y), params_.channel_tolerance);
      if (deviates_now && dynamic_score_(x, y) >= dyn_threshold) {
        candidate(x, y) = imaging::kMaskSet;
      }
    }
  }
  candidate = imaging::CloseDisc(candidate, 2.0);
  // The largest island, unless even it is too small to trust.
  Bitmap seed = imaging::LargestComponent(candidate, params_.min_island_area);
  if (imaging::CountSet(seed) < 16) return seed;

  // The motion cue only finds the MOVING parts of the caller; a torso that
  // never moves is absorbed into the static layer. Grow the seed over
  // pixels sharing the seed's palette (apparel/skin colors), the way a
  // semantic segmenter would keep the whole person.
  imaging::ColorFrequency palette;
  const Bitmap seed_core = imaging::ErodeDisc(seed, 1.5);
  palette.AddMasked(frame,
                    imaging::CountSet(seed_core) > 32 ? seed_core : seed);
  // Growth is limited to the seed's neighbourhood: a person is one
  // connected region, so palette-colored pixels across the frame (e.g. a
  // virtual background sharing the shirt's hue) must not be absorbed.
  const Bitmap reach = imaging::DilateDisc(seed, h / 3.0);
  Bitmap grown = seed;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (grown(x, y) || !reach(x, y)) continue;
      if (palette.Frequency(frame(x, y)) >= 0.03) {
        grown(x, y) = imaging::kMaskSet;
      }
    }
  }
  grown = imaging::CloseDisc(grown, 2.0);
  // Keep only the grown regions attached to the moving seed.
  const auto labeling = imaging::LabelComponents(grown);
  std::vector<bool> keep(labeling.components.size() + 1, false);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (seed(x, y) && labeling.labels(x, y) > 0) {
        keep[static_cast<std::size_t>(labeling.labels(x, y))] = true;
      }
    }
  }
  Bitmap body(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int label = labeling.labels(x, y);
      if (label > 0 && keep[static_cast<std::size_t>(label)]) {
        body(x, y) = imaging::kMaskSet;
      }
    }
  }

  // Color-model refinement: drop boundary pixels whose color is rare in the
  // confident core (leaked background trapped at the rim).
  const Bitmap core = imaging::ErodeDisc(body, params_.core_erode_px);
  if (imaging::CountSet(core) > 32) {
    imaging::ColorFrequency freq;
    freq.AddMasked(frame, core);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        if (!body(x, y) || core(x, y)) continue;
        if (freq.Frequency(frame(x, y)) < params_.rare_color_frequency) {
          body(x, y) = imaging::kMaskClear;
        }
      }
    }
    body = imaging::CloseDisc(body, 1.0);
  }
  return body;
}

}  // namespace bb::segmentation
