#include "detect/template_match.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/trace.h"
#include "imaging/kernels/kernels.h"
#include "imaging/pyramid.h"
#include "imaging/transform.h"
#include "video/frame_source.h"

namespace bb::detect {

using imaging::Bitmap;
using imaging::Image;
using imaging::Rect;

namespace kernels = imaging::kernels;

IntegralMask::IntegralMask(const Bitmap& mask)
    : width_(mask.width()), height_(mask.height()),
      table_(static_cast<std::size_t>(mask.width() + 1) *
             (mask.height() + 1), 0) {
  const int w1 = width_ + 1;
  for (int y = 0; y < height_; ++y) {
    long long row_sum = 0;
    for (int x = 0; x < width_; ++x) {
      row_sum += mask(x, y) ? 1 : 0;
      table_[static_cast<std::size_t>(y + 1) * w1 + (x + 1)] =
          table_[static_cast<std::size_t>(y) * w1 + (x + 1)] + row_sum;
    }
  }
}

long long IntegralMask::Sum(const Rect& r) const {
  const Rect c = r.Intersect({0, 0, width_, height_});
  if (c.Empty()) return 0;
  const int w1 = width_ + 1;
  auto at = [&](int x, int y) {
    return table_[static_cast<std::size_t>(y) * w1 + x];
  };
  return at(c.x2(), c.y2()) - at(c.x, c.y2()) - at(c.x2(), c.y) +
         at(c.x, c.y);
}

namespace {

// Template sample grid in structure-of-arrays form, ready for
// kernels::MatchHsvBounded.
struct TemplateSamples {
  std::vector<std::int32_t> xs, ys;
  std::vector<float> key;
  std::vector<std::uint8_t> cls;

  bool empty() const { return xs.empty(); }
  kernels::HsvKeySpan keys() const { return {key, cls}; }
};

TemplateSamples CollectSamples(const Image& img, const Bitmap& valid,
                               int tstride,
                               const std::optional<imaging::Rgb8>& ignore,
                               float min_saturation) {
  TemplateSamples out;
  for (int y = 0; y < img.height(); y += tstride) {
    for (int x = 0; x < img.width(); x += tstride) {
      if (!valid.empty() && !valid(x, y)) continue;
      if (ignore && img(x, y) == *ignore) continue;  // canvas filler
      const kernels::HsvKey k = kernels::HsvKeyOf(img(x, y), min_saturation);
      out.xs.push_back(x);
      out.ys.push_back(y);
      out.key.push_back(k.key);
      out.cls.push_back(k.cls);
    }
  }
  return out;
}

// Exact match keys of every pixel of an image (kernels::RgbToHsvKeys).
struct KeyGrid {
  imaging::ImageT<float> key;
  Bitmap cls;

  KeyGrid() = default;
  KeyGrid(const Image& img, float min_saturation)
      : key(img.width(), img.height()), cls(img.width(), img.height()) {
    kernels::RgbToHsvKeys(img.pixels(), {}, min_saturation, key.pixels(),
                          cls.pixels());
  }
  kernels::HsvKeySpan keys() const { return {key.pixels(), cls.pixels()}; }
};

// Everything derived from the template for one (scale, rotation) pair,
// computed once up front. The scaled image itself is derived once per
// *scale* and shared across rotations - the cache that replaces the
// per-sweep re-derivation the hot loop used to pay for.
struct JobPlan {
  int scale_index = 0;
  int rot_index = 0;
  double scale = 1.0;
  double rotation = 0.0;
  int tw = 0, th = 0;
  long long window_area = 0;
  bool pruned_entirely = false;
  TemplateSamples fine;    // samples on the rotated, scaled template
  TemplateSamples coarse;  // samples on its 2x pyramid level (visit order)
};

Image Downsample2xImage(const Image& img) {
  return imaging::FromBandImage(imaging::Downsample2x(
      imaging::ToBandImage(img)));
}

}  // namespace

TemplateMatchResult MatchTemplate(const Image& reconstruction,
                                  const Bitmap& coverage, const Image& templ,
                                  const TemplateMatchOptions& opts) {
  imaging::RequireSameShape(reconstruction, coverage, "MatchTemplate");
  const trace::ScopedTimer timer("detect.match_template");
  TemplateMatchResult best;
  if (templ.empty() || reconstruction.empty()) return best;

  const IntegralMask cov_integral(coverage);
  const long long frame_pixels =
      static_cast<long long>(reconstruction.pixel_count());
  const int gw = reconstruction.width();
  const int gh = reconstruction.height();

  // Precompute the reconstruction's match keys once.
  const KeyGrid recon_keys(reconstruction, opts.min_saturation);

  // Coarse level for visit ordering (pruned mode only): the reconstruction's
  // 2x pyramid level plus a matching nearest-neighbour coverage grid. The
  // coarse pass only *orders* windows - every returned number still comes
  // from the fine evaluation - so it cannot change results, only how early
  // the incumbent gets good and how much the bound prunes.
  KeyGrid coarse_keys;
  Bitmap coarse_cov;
  if (opts.prune) {
    const Image coarse_img = Downsample2xImage(reconstruction);
    coarse_keys = KeyGrid(coarse_img, opts.min_saturation);
    coarse_cov = imaging::ResizeNearest(coverage, coarse_img.width(),
                                        coarse_img.height());
  }

  const int stride = std::max(1, opts.window_stride);
  const int tstride = std::max(1, opts.sample_stride);
  const kernels::HsvMatchParams params{opts.min_saturation, opts.hue_tolerance,
                                       opts.value_tolerance};
  const std::int32_t min_compared =
      static_cast<std::int32_t>(std::max(1, opts.min_compared_samples));

  // ---- Template derivation cache ----------------------------------------
  // Serial precompute of every (scale, rotation) derivation, with the
  // scaled template derived once per scale and pooled buffers reused across
  // derivations. Each reuse of an already-derived scaled template is a
  // cache hit the old per-job derivation would have re-paid.
  std::vector<JobPlan> plans;
  std::uint64_t template_cache_hits = 0;
  {
    video::BufferPool pool;
    for (int si = 0; si < static_cast<int>(opts.scales.size()); ++si) {
      const double scale = opts.scales[static_cast<std::size_t>(si)];
      // Round (not truncate) the scaled dimensions so sweeps are symmetric:
      // a 31-px template at scale 0.99 must stay 31 px, not drop to 30.
      const int tw = std::max(
          2, static_cast<int>(std::lround(templ.width() * scale)));
      const int th = std::max(
          2, static_cast<int>(std::lround(templ.height() * scale)));
      const long long window_area = static_cast<long long>(tw) * th;
      const bool viable =
          tw <= gw && th <= gh &&
          static_cast<double>(window_area) >=
              opts.min_window_fraction * static_cast<double>(frame_pixels);

      Image scaled;
      bool scaled_derived = false;
      for (int ri = 0; ri < static_cast<int>(opts.rotations.size()); ++ri) {
        JobPlan plan;
        plan.scale_index = si;
        plan.rot_index = ri;
        plan.scale = scale;
        plan.rotation = opts.rotations[static_cast<std::size_t>(ri)];
        plan.tw = tw;
        plan.th = th;
        plan.window_area = window_area;
        if (!viable) {
          plan.pruned_entirely = true;  // paper's minimum-window constraint
          plans.push_back(std::move(plan));
          continue;
        }
        if (!scaled_derived) {
          scaled = pool.AcquireImage(tw, th);
          imaging::ResizeNearestInto(templ, tw, th, &scaled);
          scaled_derived = true;
        } else {
          ++template_cache_hits;
        }

        // Rotation filler pixels carry no object evidence; the validity
        // mask (not a sentinel color) identifies them, so genuinely black
        // template pixels keep contributing samples.
        if (plan.rotation == 0.0) {
          plan.fine = CollectSamples(scaled, Bitmap(), tstride,
                                     opts.ignore_exact_color,
                                     opts.min_saturation);
          if (opts.prune && !plan.fine.empty()) {
            plan.coarse = CollectSamples(Downsample2xImage(scaled), Bitmap(),
                                         tstride, std::nullopt,
                                         opts.min_saturation);
          }
        } else {
          Image rotated = pool.AcquireImage(tw, th);
          Bitmap rot_valid = pool.AcquireBitmap(tw, th);
          imaging::RotateInto(scaled, plan.rotation, &rot_valid, &rotated);
          plan.fine = CollectSamples(rotated, rot_valid, tstride,
                                     opts.ignore_exact_color,
                                     opts.min_saturation);
          if (opts.prune && !plan.fine.empty()) {
            const Image coarse_tmpl = Downsample2xImage(rotated);
            plan.coarse = CollectSamples(
                coarse_tmpl,
                imaging::ResizeNearest(rot_valid, coarse_tmpl.width(),
                                       coarse_tmpl.height()),
                tstride, std::nullopt, opts.min_saturation);
          }
          pool.Release(std::move(rotated));
          pool.Release(std::move(rot_valid));
        }
        if (plan.fine.empty()) plan.pruned_entirely = true;
        plans.push_back(std::move(plan));
      }
      if (scaled_derived) pool.Release(std::move(scaled));
    }
  }

  // ---- Sweep ------------------------------------------------------------
  // One job per (scale, rotation) plan; each sweeps its windows serially
  // against a job-local incumbent (so pruning never depends on thread
  // interleaving) and records job-local tallies, flushed serially below.
  struct Job {
    std::int64_t best_m = 0;
    std::int64_t best_c = 1;  // sentinel: "score 0" - old code required > 0
    std::int64_t best_order = -1;
    Rect best_window;
    bool any = false;
    std::uint64_t windows_scored = 0;
    std::uint64_t windows_pruned = 0;
    std::uint64_t windows_abandoned = 0;
  };
  std::vector<Job> jobs(plans.size());

  common::ParallelFor(0, static_cast<std::int64_t>(plans.size()), /*grain=*/1,
                      [&](std::int64_t j) {
    const JobPlan& plan = plans[static_cast<std::size_t>(j)];
    Job& job = jobs[static_cast<std::size_t>(j)];
    if (plan.pruned_entirely) return;

    // Enumerate windows passing the recovered-fraction constraint.
    struct Pos {
      std::int32_t wx, wy;
      std::int64_t order;         // serial (wy, wx) scan position
      std::int32_t cm = 0, cc = 0;  // coarse score (visit ordering only)
    };
    std::vector<Pos> positions;
    std::int64_t order = 0;
    for (int wy = 0; wy + plan.th <= gh; wy += stride) {
      for (int wx = 0; wx + plan.tw <= gw; wx += stride) {
        const long long recovered =
            cov_integral.Sum({wx, wy, plan.tw, plan.th});
        if (static_cast<double>(recovered) <
            opts.min_recovered_fraction *
                static_cast<double>(plan.window_area)) {
          ++job.windows_pruned;  // paper's recovered-pixel constraint
          continue;
        }
        positions.push_back({wx, wy, order++, 0, 0});
      }
    }

    if (opts.prune && !plan.coarse.empty()) {
      // Coarse pass: score each window's half-resolution projection, then
      // visit fine windows best-coarse-first so the incumbent is strong
      // before most of the sweep starts.
      for (Pos& p : positions) {
        const kernels::WindowScore ws = kernels::MatchHsvBounded(
            plan.coarse.keys(), plan.coarse.xs, plan.coarse.ys,
            coarse_keys.keys(), coarse_keys.key.width(),
            coarse_keys.key.height(), coarse_cov.pixels(), p.wx / 2,
            p.wy / 2, params,
            /*best_matched=*/0, /*best_compared=*/0, /*tie_wins=*/false,
            /*min_compared=*/0);
        p.cm = ws.matched;
        p.cc = ws.compared;
      }
      std::sort(positions.begin(), positions.end(),
                [](const Pos& a, const Pos& b) {
                  if (kernels::FractionGreater(a.cm, a.cc, b.cm, b.cc)) {
                    return true;
                  }
                  if (kernels::FractionEqual(a.cm, a.cc, b.cm, b.cc)) {
                    return a.order < b.order;
                  }
                  return false;
                });
    }

    for (const Pos& p : positions) {
      // tie_wins: would this window, on an exact tie, replace the incumbent
      // under the serial first-maximum rule? Only when it comes earlier in
      // (wy, wx) scan order - which makes the winner independent of the
      // coarse-pass visit order.
      const bool tie_wins = job.any && p.order < job.best_order;
      const kernels::WindowScore ws = kernels::MatchHsvBounded(
          plan.fine.keys(), plan.fine.xs, plan.fine.ys, recon_keys.keys(), gw,
          gh, coverage.pixels(), p.wx, p.wy, params,
          opts.prune ? job.best_m : 0, opts.prune ? job.best_c : 0, tie_wins,
          opts.prune ? min_compared : 0);
      if (ws.abandoned) {
        ++job.windows_abandoned;
        continue;
      }
      if (ws.compared < min_compared) {
        ++job.windows_pruned;
        continue;
      }
      ++job.windows_scored;
      const std::int64_t m = ws.matched, c = ws.compared;
      if (kernels::FractionGreater(m, c, job.best_m, job.best_c) ||
          (job.any && kernels::FractionEqual(m, c, job.best_m, job.best_c) &&
           p.order < job.best_order)) {
        job.best_m = m;
        job.best_c = c;
        job.best_order = p.order;
        job.best_window = {p.wx, p.wy, plan.tw, plan.th};
        job.any = true;
      }
    }
  });

  // Deterministic argmax: jobs are visited in (scale_index, rot_index)
  // order and each job keeps the first maximum in (wy, wx) scan order, so
  // with exact fraction comparison and a strict `greater` the winner
  // matches the serial nested-loop scan exactly - ties break toward the
  // lowest (scale, rotation, wy, wx).
  std::uint64_t windows_scored = 0, windows_pruned = 0,
                windows_abandoned = 0, jobs_pruned = 0;
  std::int64_t best_m = 0, best_c = 1;
  bool any = false;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    const JobPlan& plan = plans[j];
    windows_scored += job.windows_scored;
    windows_pruned += job.windows_pruned;
    windows_abandoned += job.windows_abandoned;
    jobs_pruned += plan.pruned_entirely ? 1 : 0;
    if (job.any &&
        kernels::FractionGreater(job.best_m, job.best_c, best_m, best_c)) {
      best_m = job.best_m;
      best_c = job.best_c;
      best.window = job.best_window;
      best.scale = plan.scale;
      best.rotation = plan.rotation;
      any = true;
    }
  }
  if (any) {
    best.score = static_cast<double>(best_m) / static_cast<double>(best_c);
  }
  if (trace::Enabled()) {
    trace::AddCounter("match_template.windows_scored", windows_scored);
    trace::AddCounter("match_template.windows_pruned", windows_pruned);
    trace::AddCounter("match_template.windows_abandoned", windows_abandoned);
    trace::AddCounter("match_template.jobs_pruned", jobs_pruned);
    trace::AddCounter("kernel.template_cache_hits", template_cache_hits);
  }
  best.found = best.score >= opts.present_threshold;
  return best;
}

}  // namespace bb::detect
