#include "core/attacks/location.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/parallel.h"
#include "common/trace.h"
#include "imaging/kernels/kernels.h"
#include "imaging/transform.h"

namespace bb::core {

using imaging::Bitmap;
using imaging::Image;

namespace kernels = imaging::kernels;

namespace {

// The shift lattice of the transform search: every (dx, dy) in
// [-max_shift, max_shift] at shift_step, in the (dy, dx) order the sweep
// reports them. The candidate planes carry `pad` cells of ineligible
// padding on every side, so no lattice shift moves a sample off its plane.
struct Lattice {
  int pad = 0;
  std::vector<std::int32_t> dx, dy;

  std::size_t size() const { return dx.size(); }
};

Lattice MakeLattice(const LocationMatchOptions& o) {
  Lattice out;
  out.pad = std::max(0, o.max_shift);
  const int step = std::max(1, o.shift_step);
  for (int dy = -o.max_shift; dy <= o.max_shift; dy += step) {
    for (int dx = -o.max_shift; dx <= o.max_shift; dx += step) {
      out.dx.push_back(dx);
      out.dy.push_back(dy);
    }
  }
  return out;
}

// One candidate's exact match keys (kernels::RgbToHsvKeys), padded by
// lattice.pad ineligible cells on every side and widened to the
// reconstruction's extent when the candidate is smaller, so every sample
// of the reconstruction lands inside the plane at every lattice shift.
// Cells outside the candidate, or where `valid` is clear, are ineligible.
// `offsets` holds dy * width + dx per lattice point.
struct KeyPlane {
  imaging::ImageT<float> key;
  Bitmap cls;
  std::vector<std::int32_t> offsets;

  kernels::HsvKeySpan keys() const { return {key.pixels(), cls.pixels()}; }
};

KeyPlane MakeKeyPlane(const Image& img, const Bitmap& valid, int min_width,
                      int min_height, const Lattice& lattice,
                      float min_saturation) {
  const int pad = lattice.pad;
  const int width = std::max(img.width(), min_width) + 2 * pad;
  const int height = std::max(img.height(), min_height) + 2 * pad;
  KeyPlane plane{imaging::ImageT<float>(width, height),
                 Bitmap(width, height, kernels::kHsvIneligible),
                 {}};
  for (int y = 0; y < img.height(); ++y) {
    kernels::RgbToHsvKeys(
        img.row(y),
        valid.empty() ? std::span<const std::uint8_t>() : valid.row(y),
        min_saturation, plane.key.row(y + pad).subspan(pad, img.width()),
        plane.cls.row(y + pad).subspan(pad, img.width()));
  }
  for (std::size_t s = 0; s < lattice.size(); ++s) {
    plane.offsets.push_back(lattice.dy[s] * width + lattice.dx[s]);
  }
  return plane;
}

// Covered, sampled pixels of one (possibly rotated) reconstruction: their
// positions, exact match keys and tolerances, and their indices into key
// planes `base_width` cells wide.
struct Samples {
  std::vector<std::int32_t> xs, ys;
  std::vector<float> key, tolerance;
  std::vector<std::uint8_t> cls;
  int base_width = 0;
  std::vector<std::int32_t> base;
};

void SetBase(const Samples& samples, int pad, int width,
             std::vector<std::int32_t>* base) {
  base->clear();
  for (std::size_t k = 0; k < samples.xs.size(); ++k) {
    base->push_back((samples.ys[k] + pad) * width + samples.xs[k] + pad);
  }
}

// Samples every rotation of the reconstruction, indexed for the planes of
// candidates no wider than the reconstruction.
std::vector<Samples> SampleRotations(const Image& recon,
                                     const Bitmap& coverage,
                                     const LocationMatchOptions& opts,
                                     const Lattice& lattice) {
  const kernels::HsvMatchParams params{
      opts.min_saturation, opts.hue_tolerance, opts.value_tolerance};
  const int stride = std::max(1, opts.pixel_stride);
  std::vector<Samples> out;
  for (double rot : opts.rotations) {
    const Image r = rot == 0.0 ? recon : imaging::Rotate(recon, rot);
    const Bitmap c = rot == 0.0 ? coverage : imaging::Rotate(coverage, rot);
    Samples s;
    for (int y = 0; y < r.height(); y += stride) {
      for (int x = 0; x < r.width(); x += stride) {
        if (!c(x, y)) continue;
        const kernels::HsvKey k =
            kernels::HsvKeyOf(r(x, y), params.min_saturation);
        s.xs.push_back(x);
        s.ys.push_back(y);
        s.key.push_back(k.key);
        s.cls.push_back(k.cls);
        s.tolerance.push_back(kernels::HsvTolerance(k.cls, params));
      }
    }
    s.base_width = recon.width() + 2 * lattice.pad;
    SetBase(s, lattice.pad, s.base_width, &s.base);
    out.push_back(std::move(s));
  }
  return out;
}

// Running exact maximum over the sweep; score() converts the winning
// fraction once, so the double cannot depend on the visit order.
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

// Best matched fraction of one candidate plane over every rotation and
// lattice shift, offered in (rotation, dy, dx) order. Shifts that compared
// fewer than `min_compared` samples do not count.
BestFraction ScorePlane(const std::vector<Samples>& rotated,
                        const KeyPlane& plane, const Lattice& lattice,
                        std::int32_t min_compared) {
  BestFraction best;
  std::vector<std::int32_t> matched(lattice.size());
  std::vector<std::int32_t> compared(lattice.size());
  std::vector<std::int32_t> wide_base;
  for (const Samples& samples : rotated) {
    std::span<const std::int32_t> base = samples.base;
    if (plane.key.width() != samples.base_width) {
      // A candidate wider than the reconstruction.
      SetBase(samples, lattice.pad, plane.key.width(), &wide_base);
      base = wide_base;
    }
    kernels::MatchHsvLattice({samples.key, samples.cls}, samples.tolerance,
                             base, plane.keys(), plane.offsets, matched,
                             compared);
    for (std::size_t s = 0; s < lattice.size(); ++s) {
      if (compared[s] < min_compared) continue;
      best.Offer(matched[s], compared[s]);
    }
  }
  return best;
}

}  // namespace

double LocationMatchScore(const Image& reconstruction,
                          const Bitmap& coverage, const Image& candidate,
                          const LocationMatchOptions& opts) {
  imaging::RequireSameShape(reconstruction, coverage, "LocationMatchScore");
  const trace::ScopedTimer timer("attack.location.score");
  if (imaging::SetFraction(coverage) < opts.min_coverage) return 0.0;
  const Lattice lattice = MakeLattice(opts);
  const KeyPlane plane =
      MakeKeyPlane(candidate, Bitmap(), reconstruction.width(),
                   reconstruction.height(), lattice, opts.min_saturation);
  return ScorePlane(SampleRotations(reconstruction, coverage, opts, lattice),
                    plane, lattice, /*min_compared=*/1)
      .score();
}

std::vector<RankedCandidate> RankLocations(
    const Image& reconstruction, const Bitmap& coverage,
    std::span<const Image> dictionary, const LocationMatchOptions& opts) {
  imaging::RequireSameShape(reconstruction, coverage, "RankLocations");
  const trace::ScopedTimer timer("attack.location.rank");
  trace::AddCounter("location.candidates_ranked", dictionary.size());

  // Sample every rotation once; every candidate reuses the samples.
  const Lattice lattice = MakeLattice(opts);
  const bool enough_coverage =
      imaging::SetFraction(coverage) >= opts.min_coverage;
  const std::vector<Samples> rotated =
      enough_coverage
          ? SampleRotations(reconstruction, coverage, opts, lattice)
          : std::vector<Samples>();

  // Candidates are scored in parallel. Each owns its key plane and its
  // output slot, and its score depends on nothing but its own sweep, so
  // neither scores nor order can depend on the schedule.
  std::vector<RankedCandidate> ranking(dictionary.size());
  common::ParallelFor(
      0, static_cast<std::int64_t>(dictionary.size()), /*grain=*/1,
      [&](std::int64_t d) {
        const auto slot = static_cast<std::size_t>(d);
        double score = 0.0;
        if (enough_coverage) {
          const KeyPlane plane = MakeKeyPlane(
              dictionary[slot], Bitmap(), reconstruction.width(),
              reconstruction.height(), lattice, opts.min_saturation);
          score = ScorePlane(rotated, plane, lattice, /*min_compared=*/1)
                      .score();
        }
        ranking[slot] = {static_cast<int>(d), score};
      });
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

  // A's samples sweep B's plane, on which only pixels B recovered are
  // eligible. A shift must compare more than 8 samples to count.
  const Lattice lattice = MakeLattice(opts);
  const KeyPlane plane =
      MakeKeyPlane(recon_b, coverage_b, recon_a.width(), recon_a.height(),
                   lattice, opts.min_saturation);
  out.score = ScorePlane(SampleRotations(recon_a, coverage_a, opts, lattice),
                         plane, lattice, /*min_compared=*/9)
                  .score();
  return out;
}

}  // namespace bb::core
