// Plain-loop reference for the kernel catalog (src/imaging/kernels/): the
// simplest possible loop per primitive, the oracle kernels_test.cpp holds
// the product bodies to bit for bit. LerpRgb, SplitRgb, MergeRgb,
// RgbToHsvSpan and HueHistogramAccum have no entry: their product bodies
// already are the plain loop, and their callers' tests and the golden
// suite cover them.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "imaging/kernels/kernels.h"

namespace bb::imaging::kernels::reference {

inline void MaskAnd(std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b,
                    std::span<std::uint8_t> out) {
  assert(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = (a[i] && b[i]) ? kMaskSet : kMaskClear;
  }
}

inline void MaskOr(std::span<const std::uint8_t> a,
                   std::span<const std::uint8_t> b,
                   std::span<std::uint8_t> out) {
  assert(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = (a[i] || b[i]) ? kMaskSet : kMaskClear;
  }
}

inline void MaskAndNot(std::span<const std::uint8_t> a,
                       std::span<const std::uint8_t> b,
                       std::span<std::uint8_t> out) {
  assert(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = (a[i] && !b[i]) ? kMaskSet : kMaskClear;
  }
}

inline void MaskNot(std::span<const std::uint8_t> a,
                    std::span<std::uint8_t> out) {
  assert(a.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = a[i] ? kMaskClear : kMaskSet;
  }
}

inline void MaskNor(std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b,
                    std::span<std::uint8_t> out) {
  assert(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = (!a[i] && !b[i]) ? kMaskSet : kMaskClear;
  }
}

inline std::size_t CountSet(std::span<const std::uint8_t> m) {
  std::size_t n = 0;
  for (std::uint8_t v : m) n += (v != 0);
  return n;
}

inline void CountAndOr(std::span<const std::uint8_t> a,
                       std::span<const std::uint8_t> b, std::uint64_t* inter,
                       std::uint64_t* uni) {
  assert(a.size() == b.size());
  std::uint64_t in = 0, un = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool sa = a[i] != 0, sb = b[i] != 0;
    in += (sa && sb);
    un += (sa || sb);
  }
  *inter = in;
  *uni = un;
}

inline void CountMaskedPair(std::span<const std::uint8_t> region,
                            std::span<const std::uint8_t> m,
                            std::uint64_t* total, std::uint64_t* masked) {
  assert(region.size() == m.size());
  std::uint64_t t = 0, k = 0;
  for (std::size_t i = 0; i < region.size(); ++i) {
    if (!region[i]) continue;
    ++t;
    k += (m[i] != 0);
  }
  *total = t;
  *masked = k;
}

inline void SelectRgb(std::span<const std::uint8_t> m, std::span<const Rgb8> a,
                      std::span<const Rgb8> b, std::span<Rgb8> out) {
  assert(m.size() == a.size() && a.size() == b.size() &&
         b.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = m[i] ? a[i] : b[i];
  }
}

inline void MaskToFloat(std::span<const std::uint8_t> m, std::span<float> out) {
  assert(m.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = m[i] ? 1.0f : 0.0f;
  }
}

inline void AddSaturate(std::span<const Rgb8> a, std::span<const Rgb8> b,
                        std::span<Rgb8> out) {
  assert(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int r = a[i].r + b[i].r;
    const int g = a[i].g + b[i].g;
    const int bl = a[i].b + b[i].b;
    out[i] = {static_cast<std::uint8_t>(r > 255 ? 255 : r),
              static_cast<std::uint8_t>(g > 255 ? 255 : g),
              static_cast<std::uint8_t>(bl > 255 ? 255 : bl)};
  }
}

inline void SubSaturate(std::span<const Rgb8> a, std::span<const Rgb8> b,
                        std::span<Rgb8> out) {
  assert(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int r = a[i].r - b[i].r;
    const int g = a[i].g - b[i].g;
    const int bl = a[i].b - b[i].b;
    out[i] = {static_cast<std::uint8_t>(r < 0 ? 0 : r),
              static_cast<std::uint8_t>(g < 0 ? 0 : g),
              static_cast<std::uint8_t>(bl < 0 ? 0 : bl)};
  }
}

inline void MatchMask(std::span<const Rgb8> frame, std::span<const Rgb8> ref,
                      std::span<const std::uint8_t> valid, int tolerance,
                      std::span<std::uint8_t> out) {
  assert(frame.size() == ref.size() && frame.size() == out.size());
  assert(valid.empty() || valid.size() == frame.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const bool eligible = valid.empty() || valid[i];
    out[i] = (eligible && NearlyEqual(frame[i], ref[i], tolerance))
                 ? kMaskSet
                 : kMaskClear;
  }
}

inline std::size_t MatchCountStrided(std::span<const Rgb8> a,
                                     std::span<const Rgb8> b, int tolerance,
                                     std::size_t stride) {
  assert(a.size() == b.size() && stride >= 1);
  std::size_t matched = 0;
  for (std::size_t i = 0; i < a.size(); i += stride) {
    matched += NearlyEqual(a[i], b[i], tolerance);
  }
  return matched;
}

inline void ChangedUnion(std::span<const Rgb8> a, std::span<const Rgb8> b,
                         int tolerance, std::span<std::uint8_t> accum) {
  assert(a.size() == b.size() && a.size() == accum.size());
  for (std::size_t i = 0; i < accum.size(); ++i) {
    if (!NearlyEqual(a[i], b[i], tolerance)) accum[i] = kMaskSet;
  }
}

inline void CountClaimedVerified(std::span<const std::uint8_t> cov,
                                 std::span<const Rgb8> recon,
                                 std::span<const Rgb8> truth, int tolerance,
                                 std::uint64_t* claimed,
                                 std::uint64_t* verified) {
  assert(cov.size() == recon.size() && cov.size() == truth.size());
  std::uint64_t c = 0, v = 0;
  for (std::size_t i = 0; i < cov.size(); ++i) {
    if (!cov[i]) continue;
    ++c;
    v += NearlyEqual(recon[i], truth[i], tolerance);
  }
  *claimed = c;
  *verified = v;
}

inline void AbsDiffMax(std::span<const Rgb8> a, std::span<const Rgb8> b,
                       std::span<float> out) {
  assert(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int dr = std::abs(a[i].r - b[i].r);
    const int dg = std::abs(a[i].g - b[i].g);
    const int db = std::abs(a[i].b - b[i].b);
    out[i] = static_cast<float>(std::max(std::max(dr, dg), db));
  }
}

inline std::uint64_t SadRgb(std::span<const Rgb8> a, std::span<const Rgb8> b) {
  assert(a.size() == b.size());
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += static_cast<std::uint64_t>(std::abs(a[i].r - b[i].r)) +
           static_cast<std::uint64_t>(std::abs(a[i].g - b[i].g)) +
           static_cast<std::uint64_t>(std::abs(a[i].b - b[i].b));
  }
  return sum;
}

inline std::uint64_t SadRgbBounded(std::span<const Rgb8> a,
                                   std::span<const Rgb8> b,
                                   std::uint64_t bound) {
  assert(a.size() == b.size());
  constexpr std::size_t kChunk = 32;
  std::uint64_t sum = 0;
  for (std::size_t base = 0; base < a.size(); base += kChunk) {
    const std::size_t end = std::min(a.size(), base + kChunk);
    for (std::size_t i = base; i < end; ++i) {
      sum += static_cast<std::uint64_t>(std::abs(a[i].r - b[i].r)) +
             static_cast<std::uint64_t>(std::abs(a[i].g - b[i].g)) +
             static_cast<std::uint64_t>(std::abs(a[i].b - b[i].b));
    }
    if (sum > bound) return sum;
  }
  return sum;
}

inline void ThresholdGE(std::span<const float> in, float threshold,
                        std::span<std::uint8_t> out) {
  assert(in.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = in[i] >= threshold ? kMaskSet : kMaskClear;
  }
}

inline void ThresholdLE(std::span<const float> in, float threshold,
                        std::span<std::uint8_t> out) {
  assert(in.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = in[i] <= threshold ? kMaskSet : kMaskClear;
  }
}

inline std::uint64_t ColorBucketHistogram(std::span<const Rgb8> px,
                                          std::span<const std::uint8_t> m,
                                          std::span<std::uint64_t> counts) {
  assert(px.size() == m.size());
  assert(counts.size() == static_cast<std::size_t>(kColorBucketCount));
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < px.size(); ++i) {
    if (!m[i]) continue;
    ++counts[static_cast<std::size_t>(ColorBucket(px[i]))];
    ++total;
  }
  return total;
}

inline std::uint64_t MaskedSumRgb(std::span<const Rgb8> px,
                                  std::span<const std::uint8_t> m,
                                  std::uint64_t* r, std::uint64_t* g,
                                  std::uint64_t* b) {
  assert(px.size() == m.size());
  std::uint64_t sr = 0, sg = 0, sb = 0, n = 0;
  for (std::size_t i = 0; i < px.size(); ++i) {
    if (!m[i]) continue;
    sr += px[i].r;
    sg += px[i].g;
    sb += px[i].b;
    ++n;
  }
  *r = sr;
  *g = sg;
  *b = sb;
  return n;
}

inline std::size_t MaskedAccumulateRgb(std::span<const Rgb8> frame,
                                       std::span<const std::uint8_t> lb,
                                       std::span<int> counts,
                                       std::span<double> sum_r,
                                       std::span<double> sum_g,
                                       std::span<double> sum_b,
                                       std::span<double> sum_r2,
                                       std::span<double> sum_g2,
                                       std::span<double> sum_b2) {
  assert(frame.size() == lb.size() && frame.size() == counts.size());
  std::size_t leaked = 0;
  for (std::size_t p = 0; p < lb.size(); ++p) {
    if (!lb[p]) continue;
    ++leaked;
    ++counts[p];
    sum_r[p] += frame[p].r;
    sum_g[p] += frame[p].g;
    sum_b[p] += frame[p].b;
    sum_r2[p] += static_cast<double>(frame[p].r) * frame[p].r;
    sum_g2[p] += static_cast<double>(frame[p].g) * frame[p].g;
    sum_b2[p] += static_cast<double>(frame[p].b) * frame[p].b;
  }
  return leaked;
}

inline WindowScore MatchHsvBounded(std::span<const Hsv> tmpl,
                                   std::span<const std::int32_t> xs,
                                   std::span<const std::int32_t> ys,
                                   std::span<const Hsv> grid, std::int32_t gw,
                                   std::int32_t gh,
                                   std::span<const std::uint8_t> cov,
                                   std::int32_t dx, std::int32_t dy,
                                   const HsvMatchParams& p,
                                   std::int64_t best_matched,
                                   std::int64_t best_compared, bool tie_wins,
                                   std::int32_t min_compared) {
  assert(tmpl.size() == xs.size() && tmpl.size() == ys.size());
  assert(grid.size() ==
         static_cast<std::size_t>(gw) * static_cast<std::size_t>(gh));
  assert(cov.empty() || cov.size() == grid.size());
  constexpr std::size_t kChunk = 64;
  WindowScore ws;
  const std::size_t n = tmpl.size();
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t end = std::min(n, base + kChunk);
    for (std::size_t k = base; k < end; ++k) {
      const std::int32_t x = xs[k] + dx;
      const std::int32_t y = ys[k] + dy;
      if (x < 0 || y < 0 || x >= gw || y >= gh) continue;
      const std::size_t idx =
          static_cast<std::size_t>(y) * static_cast<std::size_t>(gw) +
          static_cast<std::size_t>(x);
      if (!cov.empty() && !cov[idx]) continue;
      ++ws.compared;
      ws.matched += HsvPixelsMatch(tmpl[k], grid[idx], p);
    }
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

}  // namespace bb::imaging::kernels::reference
