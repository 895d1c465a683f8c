// Span-based per-pixel kernel catalog (DESIGN.md section 15).
//
// Every per-pixel hot loop in the tree lives here, exactly once. The
// bodies are written for the autovectorizer: branchless selects,
// fixed-size chunking, no data-dependent early exits inside a chunk.
// Results are exact: every primitive is either pure integer arithmetic or
// applies fixed per-element float operations (no float accumulation is
// ever reassociated; the only float sums, in MaskedAccumulateRgb, add
// integer-valued terms and are exact in any order). The test suite pins
// the primitives against a plain-loop reference, bit for bit.
//
// Kernels never allocate and never touch trace/timing state; callers own
// buffers, strides, and counters. Offsets into row-major grids are plain
// span indices so the no-raw-pixel-indexing rule stays meaningful above
// this layer.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "imaging/kernels/pixel.h"

namespace bb::imaging::kernels {

// ---- Shared parameter/result types ---------------------------------------

// HSV matching tolerances (paper sec. VI): near-gray pixels (s below
// min_saturation) match on value, saturated pixels match on hue.
struct HsvMatchParams {
  float min_saturation = 0.15f;
  float hue_tolerance = 20.0f;
  float value_tolerance = 0.22f;
};

// The per-element predicate: near-gray pixels only ever match other
// near-gray pixels (on value); colored pixels match on hue.
inline bool HsvPixelsMatch(const Hsv& a, const Hsv& b,
                           const HsvMatchParams& p) {
  const bool a_gray = a.s < p.min_saturation;
  const bool b_gray = b.s < p.min_saturation;
  if (a_gray != b_gray) return false;
  if (a_gray) return std::fabs(a.v - b.v) <= p.value_tolerance;
  return HueDistance(a.h, b.h) <= p.hue_tolerance;
}

// Integer window score: matched / compared sample counts. Fractions are
// compared exactly by int64 cross-multiplication (counts are bounded by the
// sample count, so products never overflow). `abandoned` is set when the
// early-abandon bound proved the window cannot beat the incumbent.
struct WindowScore {
  std::int32_t matched = 0;
  std::int32_t compared = 0;
  bool abandoned = false;
};

// ---- Catalog -------------------------------------------------------------
//
// Masks are 0/1 bytes (kMaskSet/kMaskClear); a non-zero byte counts as set.
// All span arguments of one call must have equal lengths unless noted.

// Boolean mask combinators.
void MaskAnd(std::span<const std::uint8_t> a,
             std::span<const std::uint8_t> b, std::span<std::uint8_t> out);
void MaskOr(std::span<const std::uint8_t> a,
            std::span<const std::uint8_t> b, std::span<std::uint8_t> out);
void MaskAndNot(std::span<const std::uint8_t> a,
                std::span<const std::uint8_t> b,
                std::span<std::uint8_t> out);
void MaskNot(std::span<const std::uint8_t> a,
             std::span<std::uint8_t> out);
// out = !a && !b (the leaked-background residue mask).
void MaskNor(std::span<const std::uint8_t> a,
             std::span<const std::uint8_t> b, std::span<std::uint8_t> out);
std::size_t CountSet(std::span<const std::uint8_t> m);
// Intersection and union counts in one pass (IoU).
void CountAndOr(std::span<const std::uint8_t> a,
                std::span<const std::uint8_t> b, std::uint64_t* inter,
                std::uint64_t* uni);
// total = set pixels of `region`; masked = those also set in `m`.
void CountMaskedPair(std::span<const std::uint8_t> region,
                     std::span<const std::uint8_t> m, std::uint64_t* total,
                     std::uint64_t* masked);
// Hard composite: out = m ? a : b.
void SelectRgb(std::span<const std::uint8_t> m, std::span<const Rgb8> a,
               std::span<const Rgb8> b, std::span<Rgb8> out);
// Mask to 1.0f/0.0f alpha plane.
void MaskToFloat(std::span<const std::uint8_t> m, std::span<float> out);
// out = Lerp(a, b, alpha) per pixel (feathered composite).
void LerpRgb(std::span<const Rgb8> a, std::span<const Rgb8> b,
             std::span<const float> alpha, std::span<Rgb8> out);
// Saturating 8-bit add/sub, channel-wise.
void AddSaturate(std::span<const Rgb8> a, std::span<const Rgb8> b,
                 std::span<Rgb8> out);
void SubSaturate(std::span<const Rgb8> a, std::span<const Rgb8> b,
                 std::span<Rgb8> out);
// Tolerance match mask: out = (valid ? NearlyEqual : 0); empty `valid`
// means every pixel is eligible (VBM computation, phi calibration).
void MatchMask(std::span<const Rgb8> frame, std::span<const Rgb8> ref,
               std::span<const std::uint8_t> valid, int tolerance,
               std::span<std::uint8_t> out);
// Count of NearlyEqual pixels visiting every stride-th element.
std::size_t MatchCountStrided(std::span<const Rgb8> a,
                              std::span<const Rgb8> b, int tolerance,
                              std::size_t stride);
// OR-accumulates set bits where the frames differ (displacement).
void ChangedUnion(std::span<const Rgb8> a, std::span<const Rgb8> b,
                  int tolerance, std::span<std::uint8_t> accum);
// claimed = covered pixels; verified = covered and NearlyEqual truth.
void CountClaimedVerified(std::span<const std::uint8_t> cov,
                          std::span<const Rgb8> recon,
                          std::span<const Rgb8> truth, int tolerance,
                          std::uint64_t* claimed, std::uint64_t* verified);
// Max-channel absolute difference as a float plane.
void AbsDiffMax(std::span<const Rgb8> a, std::span<const Rgb8> b,
                std::span<float> out);
// Sum of |dr|+|dg|+|db| over the spans (SAD).
std::uint64_t SadRgb(std::span<const Rgb8> a, std::span<const Rgb8> b);
// SAD with an early-abandon bound: once the partial sum exceeds `bound`
// at a chunk boundary the partial sum is returned (it is > bound, which
// is all a pruning caller needs). The 32-pixel chunk boundaries are part
// of the contract, so even abandoned results are exact.
std::uint64_t SadRgbBounded(std::span<const Rgb8> a,
                            std::span<const Rgb8> b, std::uint64_t bound);
void ThresholdGE(std::span<const float> in, float threshold,
                 std::span<std::uint8_t> out);
void ThresholdLE(std::span<const float> in, float threshold,
                 std::span<std::uint8_t> out);
void SplitRgb(std::span<const Rgb8> px, std::span<float> r,
              std::span<float> g, std::span<float> b);
void MergeRgb(std::span<const float> r, std::span<const float> g,
              std::span<const float> b, std::span<Rgb8> px);
void RgbToHsvSpan(std::span<const Rgb8> px, std::span<Hsv> out);
// 4096-bucket channel histogram over masked pixels; returns the number
// of counted pixels. `counts` must have kColorBucketCount entries.
std::uint64_t ColorBucketHistogram(std::span<const Rgb8> px,
                                   std::span<const std::uint8_t> m,
                                   std::span<std::uint64_t> counts);
// Hue histogram accumulation over masked, sufficiently colorful pixels;
// returns the number of binned pixels.
std::uint64_t HueHistogramAccum(std::span<const Rgb8> px,
                                std::span<const std::uint8_t> m,
                                float min_saturation, float min_value,
                                std::span<std::uint64_t> bins);
// Channel sums over masked pixels; returns the masked count.
std::uint64_t MaskedSumRgb(std::span<const Rgb8> px,
                           std::span<const std::uint8_t> m,
                           std::uint64_t* r, std::uint64_t* g,
                           std::uint64_t* b);
// Leak accumulation (streaming reconstruction): where `lb` is set, bump
// counts and the six channel sums. The sums are integer-valued doubles
// (uint8 samples and their squares), so accumulation is exact. Returns
// the number of leaked pixels.
std::size_t MaskedAccumulateRgb(
    std::span<const Rgb8> frame, std::span<const std::uint8_t> lb,
    std::span<int> counts, std::span<double> sum_r,
    std::span<double> sum_g, std::span<double> sum_b,
    std::span<double> sum_r2, std::span<double> sum_g2,
    std::span<double> sum_b2);
// Bounded HSV sample match: template sample k (hsv tmpl[k] at
// (xs[k], ys[k])) is compared against grid pixel (xs[k]+dx, ys[k]+dy)
// when that lands in the gw x gh grid and - if `cov` is non-empty - its
// coverage byte is set. Early-abandons at a 64-sample chunk boundary as
// soon as the optimistic completion (matched + remaining) /
// (compared + remaining) can no longer beat the incumbent
// best_matched / best_compared (strictly, or by tie when `tie_wins`) or
// can no longer reach min_compared. The chunk boundaries are part of the
// contract, so abandoned scores are exact too.
WindowScore MatchHsvBounded(
    std::span<const Hsv> tmpl, std::span<const std::int32_t> xs,
    std::span<const std::int32_t> ys, std::span<const Hsv> grid,
    std::int32_t gw, std::int32_t gh, std::span<const std::uint8_t> cov,
    std::int32_t dx, std::int32_t dy, const HsvMatchParams& p,
    std::int64_t best_matched, std::int64_t best_compared, bool tie_wins,
    std::int32_t min_compared);

// Exact comparison of two match fractions m1/c1 vs m2/c2 (c >= 0) without
// division: the search layers use this for incumbent updates so pruned and
// exhaustive sweeps pick the same winner bit-for-bit. Empty scores (c == 0)
// lose to everything non-empty.
inline bool FractionGreater(std::int64_t m1, std::int64_t c1, std::int64_t m2,
                            std::int64_t c2) {
  if (c1 == 0) return false;
  if (c2 == 0) return true;
  return m1 * c2 > m2 * c1;
}
inline bool FractionEqual(std::int64_t m1, std::int64_t c1, std::int64_t m2,
                          std::int64_t c2) {
  if (c1 == 0 || c2 == 0) return c1 == c2;
  return m1 * c2 == m2 * c1;
}

}  // namespace bb::imaging::kernels
