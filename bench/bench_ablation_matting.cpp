// Ablation (DESIGN.md sec. 5): which matting-error mechanism drives the
// leakage?
//
// The paper observes four error classes (sec. V-D); our engine implements
// each as a switchable term. This bench disables one term at a time and
// reports the ground-truth leak area and recovered RBRR, showing the
// temporal lag is the dominant leak source during motion and the
// initial-frame error dominates for still callers.
#include <cstdio>

#include "bench_util.h"

using namespace bb;

namespace {

struct Variant {
  const char* name;
  vbg::MattingParams params;
};

imaging::Bitmap LeakUnion(const vbg::CompositedCall& call) {
  imaging::Bitmap u(call.video.width(), call.video.height());
  for (const auto& m : call.leak_masks) u = imaging::Or(u, m);
  return u;
}

}  // namespace

int main() {
  const auto cfg = bench::BenchConfig::FromEnv();
  cfg.Print("bench_ablation_matting (matting-error term ablation)");

  const vbg::MattingParams base;
  std::vector<Variant> variants;
  variants.push_back({"full model", base});
  {
    auto p = base;
    p.temporal_lag = 0.0;
    variants.push_back({"- temporal lag", p});
  }
  {
    auto p = base;
    p.initial_bad_frames = 0;
    variants.push_back({"- initial error", p});
  }
  {
    auto p = base;
    p.motion_error_gain = 0.0;
    variants.push_back({"- motion error", p});
  }
  {
    auto p = base;
    p.contrast_confusion_px = 0.0;
    variants.push_back({"- contrast confusion", p});
  }
  {
    auto p = base;
    p.blur_confusion = 0.0;
    variants.push_back({"- blur confusion", p});
  }

  bench::Report report("ablation_matting");
  cfg.Fill(&report);
  double full_wave_rbrr = 0.0, nolag_wave_rbrr = 0.0;
  for (synth::ActionKind action : {synth::ActionKind::kArmWave,
                                   synth::ActionKind::kStill}) {
    datasets::E1Case c;
    c.participant = 0;
    c.action = action;
    c.scene_seed = cfg.seed + 5;
    c.duration_s = 12.0 * cfg.scale.duration_factor;
    const auto raw = datasets::RecordE1(c, cfg.scale);

    bench::PrintRule();
    std::printf("action: %s\n", ToString(action));
    std::printf("%-22s %12s %10s\n", "variant", "true leak", "RBRR");
    for (const auto& v : variants) {
      vbg::CompositeOptions copts;
      copts.profile.matting = v.params;
      const vbg::StaticImageSource vb(vbg::MakeStockImage(
          vbg::StockImage::kBeach, cfg.scale.width, cfg.scale.height));
      const auto call = vbg::ApplyVirtualBackground(raw, vb, copts);
      const auto ref = core::VbReference::KnownImage(vb.image());
      segmentation::NoisyOracleSegmenter seg(raw.caller_masks, {}, 7);
      const bool full_model = std::string(v.name) == "full model";
      core::ReconstructionOptions opts;
      opts.keep_frame_masks = full_model;  // for the VCM IoU below
      core::Reconstructor rc(ref, seg, opts);
      const auto rec = rc.Run(call.video);
      const auto rbrr = core::Rbrr(rec, raw.true_background);
      const imaging::Bitmap leaks = LeakUnion(call);
      const double true_leak = imaging::SetFraction(leaks);
      std::printf("%-22s %11.1f%% %9.1f%%\n", v.name, 100.0 * true_leak,
                  100.0 * rbrr.verified);
      // Report keys: <action>/<variant>, e.g. "rbrr arm_wave/- temporal lag".
      const std::string key = std::string(ToString(action)) + "/" + v.name;
      report.Measured("rbrr " + key, rbrr.verified);
      report.Measured("true_leak " + key, true_leak);
      if (full_model) {
        // Where the leak goes: the caller mask's IoU with the true caller
        // on the middle frame, and the share of the true leak the attack
        // claims.
        const int mid = call.video.frame_count() / 2;
        const auto at = static_cast<std::size_t>(mid);
        const double vcm_iou =
            imaging::Iou(rec.frame_masks[at].vcm, raw.caller_masks[at]);
        const double leak_recall =
            true_leak > 0.0
                ? imaging::SetFraction(imaging::And(rec.coverage, leaks)) /
                      true_leak
                : 0.0;
        std::printf("%-22s VCM/caller IoU %.3f (frame %d), leak recall "
                    "%.1f%%\n",
                    "", vcm_iou, mid, 100.0 * leak_recall);
        report.Measured("vcm_iou " + key, vcm_iou);
        report.Measured("leak_recall " + key, leak_recall);
      }
      if (action == synth::ActionKind::kArmWave) {
        if (full_model) {
          full_wave_rbrr = rbrr.verified;
        }
        if (std::string(v.name) == "- temporal lag") {
          nolag_wave_rbrr = rbrr.verified;
        }
      }
    }
  }
  bench::PrintRule();
  const bool lag_dominates = nolag_wave_rbrr < full_wave_rbrr;
  std::printf("expectation: removing the lag collapses motion leakage; "
              "removing the initial error collapses still-caller leakage\n");
  std::printf("shape check: removing the lag reduces motion RBRR -> %s\n",
              lag_dominates ? "OK" : "MISMATCH");
  report.Shape("removing_lag_reduces_motion_rbrr", lag_dominates);
  return report.Write() ? 0 : 1;
}
