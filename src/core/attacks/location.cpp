#include "core/attacks/location.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/parallel.h"
#include "common/trace.h"
#include "imaging/kernels/kernels.h"
#include "imaging/transform.h"

namespace bb::core {

using imaging::Bitmap;
using imaging::Hsv;
using imaging::Image;

namespace kernels = imaging::kernels;

namespace {

// Covered, sampled pixels of one (possibly rotated) reconstruction, in the
// structure-of-arrays form kernels::MatchHsvBounded takes.
struct Samples {
  std::vector<std::int32_t> xs, ys;
  std::vector<Hsv> hsv;

  bool empty() const { return xs.empty(); }
};

Samples CollectSamples(const Image& recon, const Bitmap& coverage,
                       int stride) {
  Samples out;
  for (int y = 0; y < recon.height(); y += stride) {
    for (int x = 0; x < recon.width(); x += stride) {
      if (!coverage(x, y)) continue;
      out.xs.push_back(x);
      out.ys.push_back(y);
      out.hsv.push_back(imaging::RgbToHsv(recon(x, y)));
    }
  }
  return out;
}

kernels::HsvMatchParams ParamsOf(const LocationMatchOptions& o) {
  return {o.min_saturation, o.hue_tolerance, o.value_tolerance};
}

// Running exact maximum over shift sweeps; score() reproduces the double
// the old max-of-doubles code returned (the winning fraction, converted
// once).
struct BestFraction {
  std::int64_t m = 0;
  std::int64_t c = 0;

  void Offer(std::int64_t om, std::int64_t oc) {
    if (kernels::FractionGreater(om, oc, m, c)) {
      m = om;
      c = oc;
    }
  }
  double score() const {
    return c > 0 ? static_cast<double>(m) / static_cast<double>(c) : 0.0;
  }
};

// Sweeps the +/- max_shift grid of one sample set against a candidate HSV
// grid, updating `best` in place. `cov` (optional) gates candidate pixels;
// shifts whose compared count ends below `min_compared` are ignored, as in
// the exhaustive code. With opts.prune, each evaluation carries the
// incumbent into kernels::MatchHsvBounded, whose early-abandon bound is
// exact - the final maximum is bit-identical to the exhaustive sweep.
void SweepShifts(const Samples& samples, const imaging::ImageT<Hsv>& grid,
                 std::span<const std::uint8_t> cov,
                 const LocationMatchOptions& opts, std::int32_t min_compared,
                 BestFraction* best, std::uint64_t* shifts_abandoned) {
  if (samples.empty()) return;
  const kernels::HsvMatchParams params = ParamsOf(opts);
  const int step = std::max(1, opts.shift_step);
  for (int dy = -opts.max_shift; dy <= opts.max_shift; dy += step) {
    for (int dx = -opts.max_shift; dx <= opts.max_shift; dx += step) {
      // Only the maximum is reported, so a tie never needs to win: abandon
      // as soon as strictly beating the incumbent is impossible.
      const kernels::WindowScore ws = kernels::MatchHsvBounded(
          samples.hsv, samples.xs, samples.ys, grid.pixels(), grid.width(),
          grid.height(), cov, dx, dy, params, opts.prune ? best->m : 0,
          opts.prune ? best->c : 0, /*tie_wins=*/false,
          opts.prune ? min_compared : 0);
      if (ws.abandoned) {
        ++*shifts_abandoned;
        continue;
      }
      if (ws.compared < min_compared) continue;
      best->Offer(ws.matched, ws.compared);
    }
  }
}

imaging::ImageT<Hsv> ToHsvGrid(const Image& img) {
  imaging::ImageT<Hsv> out(img.width(), img.height());
  kernels::RgbToHsvSpan(img.pixels(), out.pixels());
  return out;
}

}  // namespace

double LocationMatchScore(const Image& reconstruction,
                          const Bitmap& coverage, const Image& candidate,
                          const LocationMatchOptions& opts) {
  imaging::RequireSameShape(reconstruction, coverage, "LocationMatchScore");
  const trace::ScopedTimer timer("attack.location.score");
  if (imaging::SetFraction(coverage) < opts.min_coverage) return 0.0;
  const auto candidate_hsv = ToHsvGrid(candidate);
  BestFraction best;
  std::uint64_t shifts_abandoned = 0;
  for (double rot : opts.rotations) {
    const Image r = rot == 0.0 ? reconstruction
                               : imaging::Rotate(reconstruction, rot);
    const Bitmap c = rot == 0.0 ? coverage : imaging::Rotate(coverage, rot);
    const auto samples =
        CollectSamples(r, c, std::max(1, opts.pixel_stride));
    // The incumbent carries across rotations: the maximum is unchanged and
    // later rotations abandon their losing shifts sooner.
    SweepShifts(samples, candidate_hsv, {}, opts, /*min_compared=*/1, &best,
                &shifts_abandoned);
  }
  if (trace::Enabled()) {
    trace::AddCounter("location.shifts_abandoned", shifts_abandoned);
  }
  return best.score();
}

std::vector<RankedCandidate> RankLocations(
    const Image& reconstruction, const Bitmap& coverage,
    std::span<const Image> dictionary, const LocationMatchOptions& opts) {
  imaging::RequireSameShape(reconstruction, coverage, "RankLocations");
  const trace::ScopedTimer timer("attack.location.rank");
  trace::AddCounter("location.candidates_ranked", dictionary.size());

  // Precompute per-rotation sample lists once; reuse for every candidate.
  std::vector<Samples> rotated_samples;
  const bool enough_coverage =
      imaging::SetFraction(coverage) >= opts.min_coverage;
  if (enough_coverage) {
    for (double rot : opts.rotations) {
      const Image r = rot == 0.0 ? reconstruction
                                 : imaging::Rotate(reconstruction, rot);
      const Bitmap c = rot == 0.0 ? coverage : imaging::Rotate(coverage, rot);
      rotated_samples.push_back(
          CollectSamples(r, c, std::max(1, opts.pixel_stride)));
    }
  }

  // Candidates are scored in parallel. Every candidate reports its own full
  // score, so it owns its incumbent (which resets per candidate and only
  // spans its rotations), its output slot and its abandoned-shift count:
  // scores, order and the abandoned total cannot depend on the schedule.
  std::vector<RankedCandidate> ranking(dictionary.size());
  std::vector<std::uint64_t> abandoned(dictionary.size(), 0);
  common::ParallelFor(
      0, static_cast<std::int64_t>(dictionary.size()), /*grain=*/1,
      [&](std::int64_t d) {
        const auto slot = static_cast<std::size_t>(d);
        BestFraction best;
        if (enough_coverage) {
          const auto grid = ToHsvGrid(dictionary[slot]);
          for (const auto& samples : rotated_samples) {
            SweepShifts(samples, grid, {}, opts, /*min_compared=*/1, &best,
                        &abandoned[slot]);
          }
        }
        ranking[slot] = {static_cast<int>(d), best.score()};
      });
  if (trace::Enabled()) {
    std::uint64_t shifts_abandoned = 0;
    for (const std::uint64_t n : abandoned) shifts_abandoned += n;
    trace::AddCounter("location.shifts_abandoned", shifts_abandoned);
  }
  std::stable_sort(ranking.begin(), ranking.end(),
                   [](const RankedCandidate& a, const RankedCandidate& b) {
                     return a.score > b.score;
                   });
  return ranking;
}

int RankOf(const std::vector<RankedCandidate>& ranking, int true_index) {
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    if (ranking[i].index == true_index) return static_cast<int>(i) + 1;
  }
  return static_cast<int>(ranking.size()) + 1;
}

double RandomBaselineTopK(int k, int dictionary_size) {
  if (dictionary_size <= 0) return 0.0;
  return std::min(1.0, static_cast<double>(k) /
                           static_cast<double>(dictionary_size));
}

CrossCallMatch MatchReconstructions(const Image& recon_a,
                                    const Bitmap& coverage_a,
                                    const Image& recon_b,
                                    const Bitmap& coverage_b,
                                    const LocationMatchOptions& opts) {
  imaging::RequireSameShape(recon_a, coverage_a, "MatchReconstructions");
  imaging::RequireSameShape(recon_b, coverage_b, "MatchReconstructions");
  imaging::RequireSameShape(recon_a, recon_b, "MatchReconstructions");
  const trace::ScopedTimer timer("attack.location.crosscall");

  CrossCallMatch out;
  out.overlap =
      imaging::SetFraction(imaging::And(coverage_a, coverage_b));
  if (out.overlap < opts.min_coverage) return out;

  // Precompute B's HSV once; only pixels covered in B count as candidates.
  imaging::ImageT<Hsv> b_hsv(recon_b.width(), recon_b.height());
  kernels::RgbToHsvSpan(recon_b.pixels(), b_hsv.pixels());

  BestFraction best;
  std::uint64_t shifts_abandoned = 0;
  for (double rot : opts.rotations) {
    const Image a_img =
        rot == 0.0 ? recon_a : imaging::Rotate(recon_a, rot);
    const Bitmap a_cov =
        rot == 0.0 ? coverage_a : imaging::Rotate(coverage_a, rot);
    const auto samples =
        CollectSamples(a_img, a_cov, std::max(1, opts.pixel_stride));
    // The exhaustive code required compared > 8.
    SweepShifts(samples, b_hsv, coverage_b.pixels(), opts,
                /*min_compared=*/9, &best, &shifts_abandoned);
  }
  if (trace::Enabled()) {
    trace::AddCounter("location.shifts_abandoned", shifts_abandoned);
  }
  out.score = best.score();
  return out;
}

}  // namespace bb::core
