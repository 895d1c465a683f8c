// The kernel catalog (kernels.h). Bodies are straight-line for the
// compiler's vectorizer: predicates are computed with bitwise & / | on
// 0-or-1 integers instead of short-circuit branches, selects are
// arithmetic, and the bounded kernels process fixed chunks with the abandon
// test only at chunk boundaries. Integer kernels are exact, float kernels
// apply fixed per-element expressions in a fixed order, and the only float
// sums (MaskedAccumulateRgb) add integer-valued terms, which is exact in any
// order.
#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>

#include "imaging/kernels/kernels.h"

namespace bb::imaging::kernels {

namespace {

// 0/1 predicate for NearlyEqual without short-circuit branches.
inline unsigned NearMask(Rgb8 a, Rgb8 b, int tol) {
  const int dr = a.r - b.r;
  const int dg = a.g - b.g;
  const int db = a.b - b.b;
  return static_cast<unsigned>((dr <= tol) & (-dr <= tol) & (dg <= tol) &
                               (-dg <= tol) & (db <= tol) & (-db <= tol));
}

}  // namespace

void MaskAnd(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
             std::span<std::uint8_t> out) {
  assert(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((a[i] != 0) & (b[i] != 0));
  }
}

void MaskOr(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
            std::span<std::uint8_t> out) {
  assert(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((a[i] | b[i]) != 0);
  }
}

void MaskAndNot(std::span<const std::uint8_t> a,
                std::span<const std::uint8_t> b, std::span<std::uint8_t> out) {
  assert(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((a[i] != 0) & (b[i] == 0));
  }
}

void MaskNot(std::span<const std::uint8_t> a, std::span<std::uint8_t> out) {
  assert(a.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(a[i] == 0);
  }
}

void MaskNor(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
             std::span<std::uint8_t> out) {
  assert(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((a[i] | b[i]) == 0);
  }
}

std::size_t CountSet(std::span<const std::uint8_t> m) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    n += static_cast<std::size_t>(m[i] != 0);
  }
  return n;
}

void CountAndOr(std::span<const std::uint8_t> a,
                std::span<const std::uint8_t> b, std::uint64_t* inter,
                std::uint64_t* uni) {
  assert(a.size() == b.size());
  std::uint64_t in = 0, un = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const unsigned sa = a[i] != 0, sb = b[i] != 0;
    in += (sa & sb);
    un += (sa | sb);
  }
  *inter = in;
  *uni = un;
}

void CountMaskedPair(std::span<const std::uint8_t> region,
                     std::span<const std::uint8_t> m, std::uint64_t* total,
                     std::uint64_t* masked) {
  assert(region.size() == m.size());
  std::uint64_t t = 0, k = 0;
  for (std::size_t i = 0; i < region.size(); ++i) {
    const unsigned in_region = region[i] != 0;
    t += in_region;
    k += in_region & static_cast<unsigned>(m[i] != 0);
  }
  *total = t;
  *masked = k;
}

void SelectRgb(std::span<const std::uint8_t> m, std::span<const Rgb8> a,
               std::span<const Rgb8> b, std::span<Rgb8> out) {
  assert(m.size() == a.size() && a.size() == b.size() &&
         b.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    // Arithmetic select: mask is 0x00 or 0xFF per byte.
    const std::uint8_t sel = static_cast<std::uint8_t>(-(m[i] != 0));
    out[i] = {static_cast<std::uint8_t>((a[i].r & sel) | (b[i].r & ~sel)),
              static_cast<std::uint8_t>((a[i].g & sel) | (b[i].g & ~sel)),
              static_cast<std::uint8_t>((a[i].b & sel) | (b[i].b & ~sel))};
  }
}

void MaskToFloat(std::span<const std::uint8_t> m, std::span<float> out) {
  assert(m.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<float>(m[i] != 0);
  }
}

void LerpRgb(std::span<const Rgb8> a, std::span<const Rgb8> b,
             std::span<const float> alpha, std::span<Rgb8> out) {
  assert(a.size() == b.size() && a.size() == alpha.size() &&
         a.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = Lerp(a[i], b[i], alpha[i]);
  }
}

void AddSaturate(std::span<const Rgb8> a, std::span<const Rgb8> b,
                 std::span<Rgb8> out) {
  assert(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int r = a[i].r + b[i].r;
    const int g = a[i].g + b[i].g;
    const int bl = a[i].b + b[i].b;
    out[i] = {static_cast<std::uint8_t>(std::min(r, 255)),
              static_cast<std::uint8_t>(std::min(g, 255)),
              static_cast<std::uint8_t>(std::min(bl, 255))};
  }
}

void SubSaturate(std::span<const Rgb8> a, std::span<const Rgb8> b,
                 std::span<Rgb8> out) {
  assert(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int r = a[i].r - b[i].r;
    const int g = a[i].g - b[i].g;
    const int bl = a[i].b - b[i].b;
    out[i] = {static_cast<std::uint8_t>(std::max(r, 0)),
              static_cast<std::uint8_t>(std::max(g, 0)),
              static_cast<std::uint8_t>(std::max(bl, 0))};
  }
}

void MatchMask(std::span<const Rgb8> frame, std::span<const Rgb8> ref,
               std::span<const std::uint8_t> valid, int tolerance,
               std::span<std::uint8_t> out) {
  assert(frame.size() == ref.size() && frame.size() == out.size());
  assert(valid.empty() || valid.size() == frame.size());
  if (valid.empty()) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::uint8_t>(NearMask(frame[i], ref[i], tolerance));
    }
    return;
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(
        static_cast<unsigned>(valid[i] != 0) &
        NearMask(frame[i], ref[i], tolerance));
  }
}

void MismatchMask(std::span<const Rgb8> frame, std::span<const Rgb8> ref,
                  std::span<const std::uint8_t> valid, int tolerance,
                  std::span<std::uint8_t> out) {
  assert(frame.size() == ref.size() && frame.size() == valid.size() &&
         frame.size() == out.size());
  // Scalar (three-byte pixels): skip the comparison where `valid` is clear.
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = valid[i] != 0 ? static_cast<std::uint8_t>(
                                 NearMask(frame[i], ref[i], tolerance) ^ 1u)
                           : kMaskClear;
  }
}

std::size_t MatchCountStrided(std::span<const Rgb8> a, std::span<const Rgb8> b,
                              int tolerance, std::size_t stride) {
  assert(a.size() == b.size() && stride >= 1);
  std::size_t matched = 0;
  for (std::size_t i = 0; i < a.size(); i += stride) {
    matched += NearMask(a[i], b[i], tolerance);
  }
  return matched;
}

void ChangedUnion(std::span<const Rgb8> a, std::span<const Rgb8> b,
                  int tolerance, std::span<std::uint8_t> accum) {
  assert(a.size() == b.size() && a.size() == accum.size());
  for (std::size_t i = 0; i < accum.size(); ++i) {
    accum[i] = static_cast<std::uint8_t>(
        static_cast<unsigned>(accum[i] != 0) |
        (NearMask(a[i], b[i], tolerance) ^ 1u));
  }
}

void CountClaimedVerified(std::span<const std::uint8_t> cov,
                          std::span<const Rgb8> recon,
                          std::span<const Rgb8> truth, int tolerance,
                          std::uint64_t* claimed, std::uint64_t* verified) {
  assert(cov.size() == recon.size() && cov.size() == truth.size());
  std::uint64_t c = 0, v = 0;
  for (std::size_t i = 0; i < cov.size(); ++i) {
    const unsigned covered = cov[i] != 0;
    c += covered;
    v += covered & NearMask(recon[i], truth[i], tolerance);
  }
  *claimed = c;
  *verified = v;
}

void AbsDiffMax(std::span<const Rgb8> a, std::span<const Rgb8> b,
                std::span<float> out) {
  assert(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int dr = a[i].r - b[i].r;
    const int dg = a[i].g - b[i].g;
    const int db = a[i].b - b[i].b;
    const int mr = dr < 0 ? -dr : dr;
    const int mg = dg < 0 ? -dg : dg;
    const int mb = db < 0 ? -db : db;
    out[i] = static_cast<float>(std::max(std::max(mr, mg), mb));
  }
}

std::uint64_t SadRgb(std::span<const Rgb8> a, std::span<const Rgb8> b) {
  assert(a.size() == b.size());
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const int dr = a[i].r - b[i].r;
    const int dg = a[i].g - b[i].g;
    const int db = a[i].b - b[i].b;
    sum += static_cast<std::uint64_t>((dr < 0 ? -dr : dr) +
                                      (dg < 0 ? -dg : dg) +
                                      (db < 0 ? -db : db));
  }
  return sum;
}

std::uint64_t SadRgbBounded(std::span<const Rgb8> a, std::span<const Rgb8> b,
                            std::uint64_t bound) {
  assert(a.size() == b.size());
  constexpr std::size_t kChunk = 32;  // part of the contract (kernels.h)
  std::uint64_t sum = 0;
  for (std::size_t base = 0; base < a.size(); base += kChunk) {
    const std::size_t end = std::min(a.size(), base + kChunk);
    std::uint64_t chunk = 0;
    for (std::size_t i = base; i < end; ++i) {
      const int dr = a[i].r - b[i].r;
      const int dg = a[i].g - b[i].g;
      const int db = a[i].b - b[i].b;
      chunk += static_cast<std::uint64_t>((dr < 0 ? -dr : dr) +
                                          (dg < 0 ? -dg : dg) +
                                          (db < 0 ? -db : db));
    }
    sum += chunk;
    if (sum > bound) return sum;
  }
  return sum;
}

void ThresholdGE(std::span<const float> in, float threshold,
                 std::span<std::uint8_t> out) {
  assert(in.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(in[i] >= threshold);
  }
}

void SplitRgb(std::span<const Rgb8> px, std::span<float> r, std::span<float> g,
              std::span<float> b) {
  assert(px.size() == r.size() && px.size() == g.size() &&
         px.size() == b.size());
  for (std::size_t i = 0; i < px.size(); ++i) {
    r[i] = px[i].r;
    g[i] = px[i].g;
    b[i] = px[i].b;
  }
}

void MergeRgb(std::span<const float> r, std::span<const float> g,
              std::span<const float> b, std::span<Rgb8> px) {
  assert(px.size() == r.size() && px.size() == g.size() &&
         px.size() == b.size());
  for (std::size_t i = 0; i < px.size(); ++i) {
    px[i] = {ClampChannelU8(r[i]), ClampChannelU8(g[i]), ClampChannelU8(b[i])};
  }
}

void RgbToHsvKeys(std::span<const Rgb8> px,
                  std::span<const std::uint8_t> valid, float min_saturation,
                  std::span<float> key, std::span<std::uint8_t> cls) {
  assert(px.size() == key.size() && px.size() == cls.size());
  assert(valid.empty() || valid.size() == px.size());
  for (std::size_t i = 0; i < px.size(); ++i) {
    const HsvKey k = HsvKeyOf(px[i], min_saturation);
    const unsigned eligible =
        valid.empty() ? 1u : static_cast<unsigned>(valid[i] != 0);
    key[i] = k.key;
    cls[i] = static_cast<std::uint8_t>(k.cls * eligible);
  }
}

std::uint64_t ColorBucketHistogram(std::span<const Rgb8> px,
                                   std::span<const std::uint8_t> m,
                                   std::span<std::uint64_t> counts) {
  assert(px.size() == m.size());
  assert(counts.size() == static_cast<std::size_t>(kColorBucketCount));
  // Scalar (a scatter): branch past clear pixels instead of adding zero to
  // a bucket for each of them.
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < px.size(); ++i) {
    if (m[i] == 0) continue;
    ++counts[static_cast<std::size_t>(ColorBucket(px[i]))];
    ++total;
  }
  return total;
}

void ColorCountSelect(std::span<const Rgb8> px,
                      std::span<const std::uint64_t> counts,
                      std::uint64_t min_count,
                      std::span<const std::uint8_t> region,
                      std::span<const std::uint8_t> keep,
                      std::span<std::uint8_t> out) {
  assert(px.size() == region.size() && px.size() == keep.size() &&
         px.size() == out.size());
  assert(counts.size() == static_cast<std::size_t>(kColorBucketCount));
  // Scalar (a gather): look a count up only for region pixels outside
  // `keep`.
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (region[i] == 0 || keep[i] != 0) {
      out[i] = region[i] != 0 ? kMaskSet : kMaskClear;
      continue;
    }
    out[i] = counts[static_cast<std::size_t>(ColorBucket(px[i]))] >= min_count
                 ? kMaskSet
                 : kMaskClear;
  }
}

std::uint64_t HueHistogramAccum(std::span<const Rgb8> px,
                                std::span<const std::uint8_t> m,
                                float min_saturation, float min_value,
                                std::span<std::uint64_t> bins) {
  assert(px.size() == m.size() && !bins.empty());
  std::uint64_t total = 0;
  const float nbins = static_cast<float>(bins.size());
  for (std::size_t i = 0; i < px.size(); ++i) {
    if (!m[i]) continue;
    const Hsv hsv = RgbToHsv(px[i]);
    if (hsv.s < min_saturation || hsv.v < min_value) continue;
    int bin = static_cast<int>(std::floor(hsv.h / 360.0f * nbins));
    if (bin < 0) bin = 0;
    if (bin >= static_cast<int>(bins.size())) {
      bin = static_cast<int>(bins.size()) - 1;
    }
    ++bins[static_cast<std::size_t>(bin)];
    ++total;
  }
  return total;
}

std::uint64_t MaskedSumRgb(std::span<const Rgb8> px,
                           std::span<const std::uint8_t> m, std::uint64_t* r,
                           std::uint64_t* g, std::uint64_t* b) {
  assert(px.size() == m.size());
  std::uint64_t sr = 0, sg = 0, sb = 0, n = 0;
  for (std::size_t i = 0; i < px.size(); ++i) {
    const std::uint64_t keep = m[i] != 0;
    sr += keep * px[i].r;
    sg += keep * px[i].g;
    sb += keep * px[i].b;
    n += keep;
  }
  *r = sr;
  *g = sg;
  *b = sb;
  return n;
}

std::size_t MaskedAccumulateRgb(std::span<const Rgb8> frame,
                                std::span<const std::uint8_t> lb,
                                std::span<int> counts, std::span<double> sum_r,
                                std::span<double> sum_g,
                                std::span<double> sum_b,
                                std::span<double> sum_r2,
                                std::span<double> sum_g2,
                                std::span<double> sum_b2) {
  assert(frame.size() == lb.size() && frame.size() == counts.size());
  // Branchless masked adds: the added term is 0 where lb is clear, and
  // adding 0.0 to these integer-valued sums is exact, so the result is
  // bit-identical to skipping clear pixels.
  std::size_t leaked = 0;
  for (std::size_t p = 0; p < lb.size(); ++p) {
    const int keep = lb[p] != 0;
    const double keepd = static_cast<double>(keep);
    leaked += static_cast<std::size_t>(keep);
    counts[p] += keep;
    sum_r[p] += keepd * frame[p].r;
    sum_g[p] += keepd * frame[p].g;
    sum_b[p] += keepd * frame[p].b;
    sum_r2[p] += keepd * frame[p].r * frame[p].r;
    sum_g2[p] += keepd * frame[p].g * frame[p].g;
    sum_b2[p] += keepd * frame[p].b * frame[p].b;
  }
  return leaked;
}

WindowScore MatchHsvBounded(HsvKeySpan tmpl, std::span<const std::int32_t> xs,
                            std::span<const std::int32_t> ys, HsvKeySpan grid,
                            std::int32_t gw, std::int32_t gh,
                            std::span<const std::uint8_t> cov, std::int32_t dx,
                            std::int32_t dy, const HsvMatchParams& p,
                            std::int64_t best_matched,
                            std::int64_t best_compared, bool tie_wins,
                            std::int32_t min_compared) {
  assert(tmpl.cls.size() == tmpl.size() && grid.cls.size() == grid.size());
  assert(tmpl.size() == xs.size() && tmpl.size() == ys.size());
  assert(grid.size() ==
         static_cast<std::size_t>(gw) * static_cast<std::size_t>(gh));
  assert(cov.empty() || cov.size() == grid.size());
  constexpr std::size_t kChunk = 64;  // part of the contract (kernels.h)
  WindowScore ws;
  const std::size_t n = tmpl.size();
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t end = std::min(n, base + kChunk);
    std::int32_t chunk_matched = 0, chunk_compared = 0;
    for (std::size_t k = base; k < end; ++k) {
      const std::int32_t x = xs[k] + dx;
      const std::int32_t y = ys[k] + dy;
      const unsigned in_bounds = static_cast<unsigned>(
          (x >= 0) & (y >= 0) & (x < gw) & (y < gh));
      // Clamp the index so out-of-bounds lanes read a harmless pixel; their
      // contribution is zeroed by the predicate.
      const std::size_t idx =
          in_bounds ? static_cast<std::size_t>(y) *
                              static_cast<std::size_t>(gw) +
                          static_cast<std::size_t>(x)
                    : 0;
      const unsigned eligible =
          in_bounds & (cov.empty() ? 1u : static_cast<unsigned>(cov[idx] != 0));
      chunk_compared += static_cast<std::int32_t>(eligible);
      chunk_matched += static_cast<std::int32_t>(
          eligible & static_cast<unsigned>(HsvKeysMatch(
                         tmpl.key[k], tmpl.cls[k], grid.key[idx],
                         grid.cls[idx], HsvTolerance(tmpl.cls[k], p))));
    }
    ws.matched += chunk_matched;
    ws.compared += chunk_compared;
    if (end == n) break;
    // Optimistic completion: every remaining sample is compared and
    // matches. (m + t) / (c + t) is nondecreasing in t for m <= c, so this
    // is an exact upper bound on the final score; abandoning on it can
    // never discard the incumbent-beating window (DESIGN.md section 15).
    const std::int64_t remaining = static_cast<std::int64_t>(n - end);
    const std::int64_t ub_m = ws.matched + remaining;
    const std::int64_t ub_c = ws.compared + remaining;
    const bool can_reach_min = ub_c >= min_compared;
    const bool can_beat =
        best_compared == 0 ||
        (tie_wins ? ub_m * best_compared >= best_matched * ub_c
                  : ub_m * best_compared > best_matched * ub_c);
    if (!can_reach_min || !can_beat) {
      ws.abandoned = true;
      return ws;
    }
  }
  return ws;
}

void MatchHsvLattice(HsvKeySpan samples, std::span<const float> tolerance,
                     std::span<const std::int32_t> base, HsvKeySpan plane,
                     std::span<const std::int32_t> offsets,
                     std::span<std::int32_t> matched,
                     std::span<std::int32_t> compared) {
  assert(samples.cls.size() == samples.size() &&
         plane.cls.size() == plane.size());
  assert(tolerance.size() == samples.size() && base.size() == samples.size());
  assert(matched.size() == offsets.size() &&
         compared.size() == offsets.size());
  const std::size_t n = samples.size();
  const float* key = plane.key.data();
  const std::uint8_t* cls = plane.cls.data();
  // Offset-major: each pass streams the sample arrays once and gathers
  // from one shifted copy of the sample pattern. The plane's padding is
  // what makes every gather legal, so the body is a fixed expression.
  for (std::size_t s = 0; s < offsets.size(); ++s) {
    const std::int32_t off = offsets[s];
    std::int32_t m = 0, c = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const std::int32_t i = base[k] + off;
      assert(i >= 0 && static_cast<std::size_t>(i) < plane.size());
      const std::uint8_t cell = cls[i];
      c += static_cast<std::int32_t>(cell != kHsvIneligible);
      m += static_cast<std::int32_t>(HsvKeysMatch(
          samples.key[k], samples.cls[k], key[i], cell, tolerance[k]));
    }
    matched[s] = m;
    compared[s] = c;
  }
}

// ---- Row-span disc ----------------------------------------------------------
//
// Each row sits in the scratch as a padded row: kSpanPad zero bytes, the
// row as 0/1 bytes, zero bytes up to a whole number of kSpanChunk-byte
// chunks, and kSpanPad zero bytes. Every loop over a padded row covers
// whole chunks, and a shift by one column reads inside the row, so the
// bodies are fixed 16-byte loops that GCC's -O2 vectorizer takes.

namespace {

constexpr std::size_t kSpanChunk = 16;
constexpr std::size_t kSpanPad = kSpanChunk;  // keeps rows chunk-aligned

// Bytes of a padded row between its two pads: the width in whole chunks.
std::size_t SpanBody(std::size_t width) {
  return (width + kSpanChunk - 1) / kSpanChunk * kSpanChunk;
}

std::size_t SpanStride(std::size_t width) {
  return kSpanPad + SpanBody(width) + kSpanPad;
}

// body(k) for every k < n, in fixed chunks plus a scalar tail; the chunks
// never overlap what they read with what they write (ivdep).
template <typename Body>
void ForEachByte(std::size_t n, Body body) {
  std::size_t x = 0;
  for (; x + kSpanChunk <= n; x += kSpanChunk) {
#pragma GCC ivdep
    for (std::size_t k = x; k < x + kSpanChunk; ++k) body(k);
  }
  for (; x < n; ++x) body(x);
}

// One pass over padded rows: out = cur dilated by `shift` (0 or 1) columns,
// ORed with rows a and b, and cut off past the last column. Cutting each
// one-column step off at the row's ends loses nothing inside the row: a
// column within d of a source is within one of a column within d - 1 of
// it that lies between the two, so inside the row.
void SpanStep(std::span<const std::uint8_t> cur, std::size_t shift,
              std::span<const std::uint8_t> a,
              std::span<const std::uint8_t> b, std::size_t width,
              std::span<std::uint8_t> out) {
  const std::size_t body = SpanBody(width);
  const auto left = cur.subspan(kSpanPad - shift, body);
  const auto mid = cur.subspan(kSpanPad, body);
  const auto right = cur.subspan(kSpanPad + shift, body);
  const auto ra = a.subspan(kSpanPad, body);
  const auto rb = b.subspan(kSpanPad, body);
  const auto o = out.subspan(kSpanPad, body);
  ForEachByte(body, [&](std::size_t k) {
    o[k] = static_cast<std::uint8_t>(left[k] | mid[k] | right[k] | ra[k] |
                                     rb[k]);
  });
  std::fill(o.begin() + static_cast<std::ptrdiff_t>(width), o.end(),
            std::uint8_t{0});
}

}  // namespace

std::size_t DiscSpanScratchSize(std::size_t width, std::size_t height) {
  return (height + 3) * SpanStride(width);
}

void DiscSpan(std::span<const std::uint8_t> mask, std::size_t width,
              std::span<const std::int32_t> reach, bool erode,
              std::span<std::uint8_t> scratch, std::span<std::uint8_t> out) {
  assert(out.size() == mask.size() && !reach.empty());
  if (width == 0 || mask.empty()) return;
  assert(mask.size() % width == 0);
  const std::size_t h = mask.size() / width;
  const std::size_t stride = SpanStride(width);
  assert(scratch.size() >= DiscSpanScratchSize(width, h));
  const unsigned flip = erode ? 1u : 0u;
  // Rows 0 .. h - 1 of the scratch hold the sources, row h stays zero, and
  // rows h + 1 and h + 2 take turns as the pass output.
  const auto row = [&](std::size_t y) {
    return scratch.subspan(y * stride, stride);
  };
  const std::span<const std::uint8_t> zero = row(h);

  // The sources as 0/1 bytes: the whole plane is read before any output
  // row is written, which is what lets `out` share memory with `mask`.
  std::fill(scratch.begin(), scratch.end(), std::uint8_t{0});
  for (std::size_t y = 0; y < h; ++y) {
    const auto m = mask.subspan(y * width, width);
    const auto s = row(y).subspan(kSpanPad, width);
    ForEachByte(width, [&](std::size_t k) {
      s[k] = static_cast<std::uint8_t>(static_cast<unsigned>(m[k] != 0) ^
                                       flip);
    });
  }

  // Output row y is the OR over g of the rows y - g and y + g dilated by
  // reach[g]. Horizontal dilation distributes over OR and composes by
  // adding widths, and reach does not increase, so one accumulator takes
  // every row pair in Horner form: start from row y, and for g = 1 .. G
  // dilate by reach[g - 1] - reach[g], then OR in the pair; a last dilation
  // by reach[G] gives row pair g exactly reach[g] in total. The OR rides
  // on the level's last one-column step.
  const std::size_t rows = reach.size();
  for (std::size_t y = 0; y < h; ++y) {
    std::span<const std::uint8_t> cur = row(y);
    std::size_t turn = 0;
    const auto step = [&](std::size_t shift, std::span<const std::uint8_t> a,
                          std::span<const std::uint8_t> b) {
      const auto next = row(h + 1 + turn);
      SpanStep(cur, shift, a, b, width, next);
      cur = next;
      turn ^= 1;
    };
    for (std::size_t g = 1; g < rows; ++g) {
      assert(reach[g] >= 0 && reach[g] <= reach[g - 1]);
      const auto above = g <= y ? row(y - g) : zero;
      const auto below = y + g < h ? row(y + g) : zero;
      const auto d = static_cast<std::size_t>(reach[g - 1] - reach[g]);
      for (std::size_t i = 1; i < d; ++i) step(1, zero, zero);
      step(d > 0 ? 1 : 0, above, below);
    }
    const auto last = static_cast<std::size_t>(reach[rows - 1]);
    for (std::size_t i = 1; i < last; ++i) step(1, zero, zero);
    // The last step writes the output row, complemented for erosion.
    const std::size_t shift = last > 0 ? 1 : 0;
    const auto left = cur.subspan(kSpanPad - shift, width);
    const auto mid = cur.subspan(kSpanPad, width);
    const auto right = cur.subspan(kSpanPad + shift, width);
    const auto o = out.subspan(y * width, width);
    ForEachByte(width, [&](std::size_t k) {
      o[k] = static_cast<std::uint8_t>(
          static_cast<unsigned>(left[k] | mid[k] | right[k]) ^ flip);
    });
  }
}

}  // namespace bb::imaging::kernels
