// ClassicalSegmenter exactness: every mask Segment() returns must equal the
// mask of the straightforward implementation below, byte for byte. The
// reference is the segmenter as it was written before its per-frame step
// was tuned: value-returning disc and labeling calls, a label-plane rescan
// to keep the grown regions, and a per-pixel Frequency() double for every
// color test. The production code computes the same masks from exact
// integer count thresholds, a dynamic-pixel mask taken once per call, run
// based component picks and per-thread scratch (DESIGN.md section 15).
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/streaming.h"
#include "core/vb_masking.h"
#include "imaging/color.h"
#include "imaging/connected_components.h"
#include "imaging/histogram.h"
#include "imaging/morphology.h"
#include "segmentation/segmenter.h"
#include "synth/recorder.h"
#include "vbg/compositor.h"
#include "vbg/virtual_source.h"
#include "video/frame_source.h"
#include "video/temporal.h"

namespace bb::segmentation {
namespace {

using imaging::Bitmap;
using imaging::FloatImage;
using imaging::Image;

class ReferenceClassicalSegmenter final : public PersonSegmenter {
 public:
  int AnalysisPasses() const override { return 2; }

  void BeginAnalysisPass(int pass, const video::StreamInfo& info) override {
    if (pass == 0) {
      prepared_ = false;
      frame_count_ = info.frame_count;
      layer_acc_.emplace(
          video::ConsistencyOptions{params_.channel_tolerance});
    } else {
      dynamic_score_ = FloatImage(info.width, info.height, 0.0f);
    }
  }

  void PushAnalysisFrame(int pass, const Image& frame,
                         int frame_index) override {
    (void)frame_index;
    if (pass == 0) {
      layer_acc_->Push(frame);
      return;
    }
    auto pf = frame.pixels();
    auto ps = static_layer_.pixels();
    auto pd = dynamic_score_.pixels();
    for (std::size_t k = 0; k < pd.size(); ++k) {
      if (!imaging::NearlyEqual(pf[k], ps[k], params_.channel_tolerance)) {
        pd[k] += 1.0f;
      }
    }
  }

  void EndAnalysisPass(int pass) override {
    if (pass == 0) {
      static_layer_ =
          layer_acc_->Finalize(std::max(3, frame_count_ / 4)).color;
      layer_acc_.reset();
    } else {
      prepared_ = true;
    }
  }

  Bitmap Segment(const Image& frame, int frame_index) override {
    (void)frame_index;
    EXPECT_TRUE(prepared_);
    const int w = frame.width(), h = frame.height();
    const float dyn_threshold =
        static_cast<float>(params_.dynamic_fraction * frame_count_);

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
    Bitmap seed =
        imaging::LargestComponent(candidate, params_.min_island_area);
    if (imaging::CountSet(seed) < 16) return seed;

    imaging::ColorFrequency palette;
    const Bitmap seed_core = imaging::ErodeDisc(seed, 1.5);
    palette.AddMasked(frame,
                      imaging::CountSet(seed_core) > 32 ? seed_core : seed);
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

 private:
  ClassicalSegmenterParams params_;
  bool prepared_ = false;
  int frame_count_ = 0;
  std::optional<video::StaticLayerAccumulator> layer_acc_;
  Image static_layer_;
  FloatImage dynamic_score_;
};

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

struct CallCase {
  synth::ActionKind action;
  int width;
  int height;
  vbg::StockImage vb;
};

std::string Name(const CallCase& c) {
  return std::string(synth::ToString(c.action)) + " " +
         std::to_string(c.width) + "x" + std::to_string(c.height);
}

struct Call {
  Image vb;
  vbg::CompositedCall composited;
};

// A short composited call, the input `backbuster attack` segments.
Call MakeCall(const CallCase& c) {
  synth::RecordingSpec spec;
  spec.scene.width = c.width;
  spec.scene.height = c.height;
  spec.action.kind = c.action;
  spec.fps = 8.0;
  spec.duration_s = 3.0;
  spec.seed = 41;
  const auto raw = synth::RecordCall(spec);
  Call call;
  call.vb = vbg::MakeStockImage(c.vb, c.width, c.height);
  call.composited =
      vbg::ApplyVirtualBackground(raw, vbg::StaticImageSource(call.vb));
  return call;
}

std::vector<Bitmap> ReferenceMasks(const video::VideoStream& video) {
  ReferenceClassicalSegmenter reference;
  Analyze(reference, video);
  std::vector<Bitmap> masks;
  for (int i = 0; i < video.frame_count(); ++i) {
    masks.push_back(reference.Segment(video.frame(i), i));
  }
  return masks;
}

const CallCase kCases[] = {
    {synth::ActionKind::kArmWave, 96, 72, vbg::StockImage::kBeach},
    {synth::ActionKind::kClap, 96, 72, vbg::StockImage::kGradient},
    {synth::ActionKind::kExitEnter, 96, 72, vbg::StockImage::kOffice},
    {synth::ActionKind::kStill, 96, 72, vbg::StockImage::kForest},
    {synth::ActionKind::kArmWave, 192, 144, vbg::StockImage::kOffice},
    {synth::ActionKind::kClap, 192, 144, vbg::StockImage::kBeach},
    {synth::ActionKind::kExitEnter, 192, 144, vbg::StockImage::kSpace},
    {synth::ActionKind::kStill, 192, 144, vbg::StockImage::kGradient},
    {synth::ActionKind::kArmWave, 13, 9, vbg::StockImage::kBeach},
};

TEST(ClassicalSegmenterExactnessTest, MatchesReferenceOnEveryFrame) {
  int masks_with_a_body = 0;
  for (const CallCase& c : kCases) {
    const Call call = MakeCall(c);
    const video::VideoStream& video = call.composited.video;
    const std::vector<Bitmap> want = ReferenceMasks(video);
    ClassicalSegmenter seg;
    Analyze(seg, video);
    for (int i = 0; i < video.frame_count(); ++i) {
      const Bitmap got = seg.Segment(video.frame(i), i);
      EXPECT_TRUE(got == want[static_cast<std::size_t>(i)])
          << Name(c) << " frame " << i;
      masks_with_a_body += imaging::CountSet(got) > 32 ? 1 : 0;
    }
  }
  // Most masks went through every stage, not the early small-seed return.
  EXPECT_GT(masks_with_a_body, 100);
}

// Records each frame's Segment() mask; the streaming core calls it from
// pool workers, one call per frame.
class RecordingSegmenter final : public PersonSegmenter {
 public:
  RecordingSegmenter(PersonSegmenter& inner, int frames)
      : inner_(inner), masks_(static_cast<std::size_t>(frames)) {}

  int AnalysisPasses() const override { return inner_.AnalysisPasses(); }
  void BeginAnalysisPass(int pass, const video::StreamInfo& info) override {
    inner_.BeginAnalysisPass(pass, info);
  }
  void PushAnalysisFrame(int pass, const Image& frame,
                         int frame_index) override {
    inner_.PushAnalysisFrame(pass, frame, frame_index);
  }
  void EndAnalysisPass(int pass) override { inner_.EndAnalysisPass(pass); }

  Bitmap Segment(const Image& frame, int frame_index) override {
    Bitmap mask = inner_.Segment(frame, frame_index);
    const std::lock_guard<std::mutex> lock(mu_);
    masks_.at(static_cast<std::size_t>(frame_index)) = mask;
    return mask;
  }

  const std::vector<Bitmap>& masks() const { return masks_; }

 private:
  PersonSegmenter& inner_;
  std::mutex mu_;
  std::vector<Bitmap> masks_;
};

TEST(ClassicalSegmenterExactnessTest, StreamedCallerPassMatchesReference) {
  const CallCase c{synth::ActionKind::kArmWave, 192, 144,
                   vbg::StockImage::kOffice};
  const Call call = MakeCall(c);
  const video::VideoStream& video = call.composited.video;
  const std::vector<Bitmap> want = ReferenceMasks(video);
  const core::VbReference ref = core::VbReference::KnownImage(call.vb);
  for (const int threads : {1, 4}) {
    common::SetThreadCount(threads);
    ClassicalSegmenter seg;
    RecordingSegmenter recorder(seg, video.frame_count());
    core::StreamingOptions opts;
    opts.window_frames = 8;
    core::StreamingReconstructor rc(ref, recorder, opts);
    video::VideoStreamSource source(video);
    const auto run = rc.Run(source);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    for (int i = 0; i < video.frame_count(); ++i) {
      EXPECT_TRUE(recorder.masks()[static_cast<std::size_t>(i)] ==
                  want[static_cast<std::size_t>(i)])
          << "threads " << threads << " frame " << i;
    }
  }
  common::SetThreadCount(0);
}

}  // namespace
}  // namespace bb::segmentation
