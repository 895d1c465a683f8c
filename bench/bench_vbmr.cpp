// Table §VIII-B: Virtual Background Masking Rates.
//
// Paper: three virtual images + two virtual videos; VBMR ~98.7% when the
// ground-truth VB is in the adversary's dictionary, ~92.6% when it must be
// derived from the call footage alone.
#include <cstdio>

#include "bench_util.h"
#include "core/vb_masking.h"

using namespace bb;

namespace {

struct VbmrResult {
  double known = 0.0;
  double derived = 0.0;
};

// Mean VBMR over the call for both the known-VB and derived-VB scenarios.
VbmrResult MeasureVbmr(const synth::RawRecording& raw,
                       const vbg::VirtualSource& vb,
                       const core::VbReference& known_ref,
                       bool vb_is_video) {
  const vbg::CompositedCall call = vbg::ApplyVirtualBackground(raw, vb);
  segmentation::NoisyOracleSegmenter seg(raw.caller_masks, {}, 7);

  auto mean_vbmr = [&](const core::VbReference& ref) {
    segmentation::NoisyOracleSegmenter seg_local(raw.caller_masks, {}, 7);
    core::ReconstructionOptions opts;
    opts.keep_frame_masks = true;
    core::Reconstructor rc(ref, seg_local, opts);
    const core::ReconstructionResult rec = rc.Run(call.video);
    double sum = 0.0;
    for (int i = 0; i < call.video.frame_count(); ++i) {
      sum += core::Vbmr(rec.frame_masks[static_cast<std::size_t>(i)],
                        call.vb_regions[static_cast<std::size_t>(i)]);
    }
    return sum / call.video.frame_count();
  };

  VbmrResult out;
  out.known = mean_vbmr(known_ref);
  if (vb_is_video) {
    const auto derived = core::VbReference::DeriveVideo(call.video);
    out.derived = derived ? mean_vbmr(*derived) : 0.0;
  } else {
    out.derived = mean_vbmr(core::VbReference::DeriveImage(call.video));
  }
  return out;
}

}  // namespace

int main() {
  const auto cfg = bench::BenchConfig::FromEnv();
  cfg.Print("bench_vbmr (Table sec. VIII-B: VB masking rates)");

  datasets::E1Case c;
  c.participant = 0;
  // Fast waving is the hardest case for VB derivation: the arm re-covers
  // the same background strip every few frames, so those VB pixels are
  // never stable for the 10-frame consistency rule and stay unknown.
  c.action = synth::ActionKind::kArmWave;
  c.speed = synth::SpeedClass::kFast;
  c.scene_seed = cfg.seed;
  c.duration_s = 12.0 * cfg.scale.duration_factor * 2.0;
  const synth::RawRecording raw = datasets::RecordE1(c, cfg.scale);

  std::vector<double> known_scores, derived_scores;
  bench::PrintRule();
  std::printf("%-18s %12s %14s\n", "virtual background", "VBMR(known)",
              "VBMR(derived)");

  for (vbg::StockImage kind : {vbg::StockImage::kBeach,
                               vbg::StockImage::kOffice,
                               vbg::StockImage::kSpace}) {
    const vbg::StaticImageSource vb(vbg::MakeStockImage(
        kind, cfg.scale.width, cfg.scale.height));
    const auto ref = core::VbReference::KnownImage(vb.image());
    const auto r = MeasureVbmr(raw, vb, ref, /*vb_is_video=*/false);
    std::printf("image:%-12s %11.1f%% %13.1f%%\n", ToString(kind),
                100.0 * r.known, 100.0 * r.derived);
    known_scores.push_back(r.known);
    derived_scores.push_back(r.derived);
  }
  for (vbg::StockVideo kind : {vbg::StockVideo::kWaves,
                               vbg::StockVideo::kStars}) {
    auto frames = vbg::MakeStockVideo(kind, cfg.scale.width,
                                      cfg.scale.height, 8);
    const vbg::LoopingVideoSource vb(frames);
    const auto ref = core::VbReference::KnownVideo(frames);
    const auto r = MeasureVbmr(raw, vb, ref, /*vb_is_video=*/true);
    std::printf("video:%-12s %11.1f%% %13.1f%%\n", ToString(kind),
                100.0 * r.known, 100.0 * r.derived);
    known_scores.push_back(r.known);
    derived_scores.push_back(r.derived);
  }

  bench::PrintRule();
  std::printf("%-18s %12s %14s\n", "", "known", "derived");
  std::printf("%-18s %11.1f%% %13.1f%%\n", "measured mean",
              100.0 * bench::Mean(known_scores),
              100.0 * bench::Mean(derived_scores));
  std::printf("%-18s %11s %14s\n", "paper", "98.7%", "92.6%");
  const bool known_gt_derived =
      bench::Mean(known_scores) > bench::Mean(derived_scores);
  std::printf("shape check: known > derived -> %s\n",
              known_gt_derived ? "OK" : "MISMATCH");

  bench::Report report("vbmr");
  cfg.Fill(&report);
  report.Paper("vbmr_known", 0.987);
  report.Paper("vbmr_derived", 0.926);
  report.Measured("vbmr_known", bench::Mean(known_scores));
  report.Measured("vbmr_derived", bench::Mean(derived_scores));
  report.Shape("known_gt_derived", known_gt_derived);
  return report.Write() ? 0 : 1;
}
