// Span-based per-pixel kernel catalog (DESIGN.md section 15).
//
// Every per-pixel hot loop in the tree lives here, exactly once. The
// bodies are written for the autovectorizer: branchless selects,
// fixed-size chunking, no data-dependent early exits inside a chunk. A
// loop that cannot vectorize anyway (three-byte pixels, a bucket gather
// or scatter) branches on its mask instead, since masks come in long runs.
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

#include <algorithm>
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

// Exact HSV match keys (DESIGN.md section 15). A match reads one number
// per pixel: the value of a near-gray pixel (s < min_saturation), else the
// hue. The class byte keeps the two kinds apart; kHsvIneligible marks a
// plane cell that takes part in no match (padding, or not covered).
inline constexpr std::uint8_t kHsvIneligible = 0;
inline constexpr std::uint8_t kHsvGray = 1;
inline constexpr std::uint8_t kHsvColor = 2;

struct HsvKey {
  float key = 0.0f;
  std::uint8_t cls = kHsvIneligible;
};

inline HsvKey HsvKeyOf(Rgb8 c, float min_saturation) {
  const Hsv hsv = RgbToHsv(c);
  const bool gray = hsv.s < min_saturation;
  return {gray ? hsv.v : hsv.h, gray ? kHsvGray : kHsvColor};
}

// The per-element predicate: near-gray pixels only ever match other
// near-gray pixels (on value); colored pixels match on hue. RgbToHsv's hue
// lies in [0, 360), so the reduction inside HueDistance is the identity and
// the shortest angle is min(d, 360 - d) with d = |ka - kb|. A value gap is
// at most 1, so the same fold leaves it alone: one expression serves both
// classes and agrees with the Hsv-based predicate on every pair of Rgb8
// pixels (tests/imaging/kernels_test.cpp checks it). `ca` is a sample's
// class, never kHsvIneligible, so an ineligible `cb` never matches.
inline bool HsvKeysMatch(float ka, std::uint8_t ca, float kb, std::uint8_t cb,
                         float tolerance) {
  const float d = std::fabs(ka - kb);
  return (ca == cb) & (std::min(d, 360.0f - d) <= tolerance);
}

// The tolerance a key of class `cls` is matched with.
inline float HsvTolerance(std::uint8_t cls, const HsvMatchParams& p) {
  return cls == kHsvGray ? p.value_tolerance : p.hue_tolerance;
}

// A run of keys in structure-of-arrays form; both spans have one entry per
// pixel or sample.
struct HsvKeySpan {
  std::span<const float> key;
  std::span<const std::uint8_t> cls;

  std::size_t size() const { return key.size(); }
};

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
// The complement within `valid`: out = valid && !NearlyEqual (the
// segmenter's candidate caller pixels). All four spans are required.
void MismatchMask(std::span<const Rgb8> frame, std::span<const Rgb8> ref,
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
void SplitRgb(std::span<const Rgb8> px, std::span<float> r,
              std::span<float> g, std::span<float> b);
void MergeRgb(std::span<const float> r, std::span<const float> g,
              std::span<const float> b, std::span<Rgb8> px);
// HSV match keys of every pixel (HsvKeyOf). Where `valid` is clear the
// class is kHsvIneligible; empty `valid` means every pixel is eligible.
void RgbToHsvKeys(std::span<const Rgb8> px,
                  std::span<const std::uint8_t> valid, float min_saturation,
                  std::span<float> key, std::span<std::uint8_t> cls);
// 4096-bucket channel histogram over masked pixels; returns the number
// of counted pixels. `counts` must have kColorBucketCount entries.
std::uint64_t ColorBucketHistogram(std::span<const Rgb8> px,
                                   std::span<const std::uint8_t> m,
                                   std::span<std::uint64_t> counts);
// Color-count selection: out = region && (keep || counts[ColorBucket(px)]
// >= min_count). `counts` must have kColorBucketCount entries. With
// min_count taken from ColorFrequency::MinCount this is the segmenter's
// palette growth and the rare-color refinements, one integer comparison
// per pixel.
void ColorCountSelect(std::span<const Rgb8> px,
                      std::span<const std::uint64_t> counts,
                      std::uint64_t min_count,
                      std::span<const std::uint8_t> region,
                      std::span<const std::uint8_t> keep,
                      std::span<std::uint8_t> out);
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
// Bounded HSV sample match: template sample k (key tmpl[k] at
// (xs[k], ys[k])) is compared against grid pixel (xs[k]+dx, ys[k]+dy)
// when that lands in the gw x gh grid and - if `cov` is non-empty - its
// coverage byte is set. Early-abandons at a 64-sample chunk boundary as
// soon as the optimistic completion (matched + remaining) /
// (compared + remaining) can no longer beat the incumbent
// best_matched / best_compared (strictly, or by tie when `tie_wins`) or
// can no longer reach min_compared. The chunk boundaries are part of the
// contract, so abandoned scores are exact too.
WindowScore MatchHsvBounded(
    HsvKeySpan tmpl, std::span<const std::int32_t> xs,
    std::span<const std::int32_t> ys, HsvKeySpan grid, std::int32_t gw,
    std::int32_t gh, std::span<const std::uint8_t> cov, std::int32_t dx,
    std::int32_t dy, const HsvMatchParams& p, std::int64_t best_matched,
    std::int64_t best_compared, bool tie_wins, std::int32_t min_compared);
// Shift-lattice HSV match (the location search): sample k, matched with
// `tolerance[k]`, sits at index base[k] of a key plane and is compared,
// for every lattice point s, against cell base[k] + offsets[s] when that
// cell is not kHsvIneligible. Writes matched[s] / compared[s] for every
// offset. Each base[k] + offsets[s] must index the plane: the caller pads
// the plane with ineligible cells so that no sample leaves it, which keeps
// the loop free of bounds tests. No abandon: every offset is counted in
// full.
void MatchHsvLattice(HsvKeySpan samples, std::span<const float> tolerance,
                     std::span<const std::int32_t> base, HsvKeySpan plane,
                     std::span<const std::int32_t> offsets,
                     std::span<std::int32_t> matched,
                     std::span<std::int32_t> compared);

// Row-span disc (DESIGN.md section 15) over a row-major mask plane of
// `width` columns. A source pixel reaches every pixel g = |dy| rows away
// (g < reach.size()) and at most reach[g] columns away; out is set where
// some source reaches. The sources are the non-zero bytes of `mask`, or
// with `erode` its zero bytes, and out is then the complement (clear where
// reached). Nothing outside the plane is a source. `reach` must be
// non-negative and must not increase with g; the cost per row grows with
// reach.size() + reach[0]. `scratch` needs DiscSpanScratchSize(width,
// height) bytes; `out` may be the same memory as `mask`.
std::size_t DiscSpanScratchSize(std::size_t width, std::size_t height);
void DiscSpan(std::span<const std::uint8_t> mask, std::size_t width,
              std::span<const std::int32_t> reach, bool erode,
              std::span<std::uint8_t> scratch, std::span<std::uint8_t> out);

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
