#include "imaging/kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "kernels_reference.h"
#include "synth/rng.h"

namespace bb::imaging::kernels {
namespace {

// The contract under test (DESIGN.md section 15): every kernel is
// BIT-identical to its plain-loop reference (kernels_reference.h) at every
// span length, odd tails included. Each case runs the same inputs through
// reference::* and the product kernel.

// Lengths chosen to straddle the internal chunk sizes (32 for
// SadRgbBounded, 64 for MatchHsvBounded) and exercise odd tails.
constexpr std::size_t kLengths[] = {0, 1, 3, 31, 32, 33, 63, 64, 65, 127, 200};

std::vector<std::uint8_t> RandomMask(synth::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> m(n);
  for (auto& v : m) v = rng.Chance(0.5) ? kMaskSet : kMaskClear;
  return m;
}

std::vector<Rgb8> RandomPixels(synth::Rng& rng, std::size_t n) {
  std::vector<Rgb8> px(n);
  for (auto& p : px) {
    p = {static_cast<std::uint8_t>(rng.UniformInt(0, 255)),
         static_cast<std::uint8_t>(rng.UniformInt(0, 255)),
         static_cast<std::uint8_t>(rng.UniformInt(0, 255))};
  }
  return px;
}

std::vector<float> RandomFloats(synth::Rng& rng, std::size_t n) {
  std::vector<float> out(n);
  for (auto& v : out) v = static_cast<float>(rng.Uniform(-10.0, 300.0));
  return out;
}

TEST(KernelIdentityTest, MaskCombinators) {
  synth::Rng rng(1);
  for (std::size_t n : kLengths) {
    const auto a = RandomMask(rng, n);
    const auto b = RandomMask(rng, n);
    std::vector<std::uint8_t> s(n), v(n);
    reference::MaskAnd(a, b, s);
    MaskAnd(a, b, v);
    EXPECT_EQ(s, v) << "MaskAnd n=" << n;
    reference::MaskOr(a, b, s);
    MaskOr(a, b, v);
    EXPECT_EQ(s, v) << "MaskOr n=" << n;
    reference::MaskAndNot(a, b, s);
    MaskAndNot(a, b, v);
    EXPECT_EQ(s, v) << "MaskAndNot n=" << n;
    reference::MaskNot(a, s);
    MaskNot(a, v);
    EXPECT_EQ(s, v) << "MaskNot n=" << n;
    reference::MaskNor(a, b, s);
    MaskNor(a, b, v);
    EXPECT_EQ(s, v) << "MaskNor n=" << n;
    EXPECT_EQ(reference::CountSet(a), CountSet(a)) << "CountSet n=" << n;
    std::uint64_t si = 0, su = 0, vi = 0, vu = 0;
    reference::CountAndOr(a, b, &si, &su);
    CountAndOr(a, b, &vi, &vu);
    EXPECT_EQ(si, vi);
    EXPECT_EQ(su, vu);
    std::uint64_t st = 0, sm = 0, vt = 0, vm = 0;
    reference::CountMaskedPair(a, b, &st, &sm);
    CountMaskedPair(a, b, &vt, &vm);
    EXPECT_EQ(st, vt);
    EXPECT_EQ(sm, vm);
  }
}

TEST(KernelIdentityTest, RgbSelectAndSaturate) {
  synth::Rng rng(2);
  for (std::size_t n : kLengths) {
    const auto a = RandomPixels(rng, n);
    const auto b = RandomPixels(rng, n);
    const auto m = RandomMask(rng, n);
    std::vector<Rgb8> s(n), v(n);
    reference::SelectRgb(m, a, b, s);
    SelectRgb(m, a, b, v);
    EXPECT_EQ(s, v) << "SelectRgb n=" << n;
    reference::AddSaturate(a, b, s);
    AddSaturate(a, b, v);
    EXPECT_EQ(s, v) << "AddSaturate n=" << n;
    reference::SubSaturate(a, b, s);
    SubSaturate(a, b, v);
    EXPECT_EQ(s, v) << "SubSaturate n=" << n;
    std::vector<float> sf(n), vf(n);
    reference::MaskToFloat(m, sf);
    MaskToFloat(m, vf);
    EXPECT_EQ(sf, vf) << "MaskToFloat n=" << n;
  }
}

TEST(KernelIdentityTest, ToleranceMatching) {
  synth::Rng rng(3);
  for (std::size_t n : kLengths) {
    auto a = RandomPixels(rng, n);
    auto b = a;
    // Half the pixels drift a little, half are replaced, so the tolerance
    // predicate sees matches, near-misses, and clear misses.
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.Chance(0.5)) {
        b[i].r = static_cast<std::uint8_t>(
            std::clamp(b[i].r + rng.UniformInt(-15, 15), 0, 255));
      } else if (rng.Chance(0.3)) {
        b[i] = {static_cast<std::uint8_t>(rng.UniformInt(0, 255)), 0, 200};
      }
    }
    const auto valid = RandomMask(rng, n);
    for (int tol : {0, 10, 255}) {
      std::vector<std::uint8_t> s(n), v(n);
      reference::MatchMask(a, b, valid, tol, s);
      MatchMask(a, b, valid, tol, v);
      EXPECT_EQ(s, v) << "MatchMask n=" << n << " tol=" << tol;
      reference::MatchMask(a, b, {}, tol, s);
      MatchMask(a, b, {}, tol, v);
      EXPECT_EQ(s, v) << "MatchMask(all) n=" << n << " tol=" << tol;
      for (std::size_t stride : {std::size_t{1}, std::size_t{3}}) {
        EXPECT_EQ(reference::MatchCountStrided(a, b, tol, stride),
                  MatchCountStrided(a, b, tol, stride))
            << "MatchCountStrided n=" << n;
      }
      std::vector<std::uint8_t> sa(n, kMaskClear), va(n, kMaskClear);
      reference::ChangedUnion(a, b, tol, sa);
      ChangedUnion(a, b, tol, va);
      EXPECT_EQ(sa, va) << "ChangedUnion n=" << n;
      const auto cov = RandomMask(rng, n);
      std::uint64_t sc = 0, sv = 0, vc = 0, vv = 0;
      reference::CountClaimedVerified(cov, a, b, tol, &sc, &sv);
      CountClaimedVerified(cov, a, b, tol, &vc, &vv);
      EXPECT_EQ(sc, vc);
      EXPECT_EQ(sv, vv);
    }
  }
}

// Mask bytes as callers may hand them over: any non-zero byte is set.
std::vector<std::uint8_t> RandomMaskBytes(synth::Rng& rng, std::size_t n,
                                          double fill) {
  constexpr std::uint8_t kSet[] = {1, 0x80, 0xFF};
  std::vector<std::uint8_t> m(n, kMaskClear);
  for (auto& v : m) {
    if (rng.Chance(fill)) v = kSet[rng.UniformInt(0, 2)];
  }
  return m;
}

TEST(KernelIdentityTest, MismatchMaskAndColorCountSelect) {
  synth::Rng rng(13);
  for (std::size_t n : kLengths) {
    const auto a = RandomPixels(rng, n);
    auto b = a;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.Chance(0.5)) {
        b[i].g = static_cast<std::uint8_t>(
            std::clamp(b[i].g + rng.UniformInt(-20, 20), 0, 255));
      }
    }
    const auto valid = RandomMaskBytes(rng, n, 0.6);
    for (int tol : {0, 14, 255}) {
      std::vector<std::uint8_t> s(n), v(n);
      reference::MismatchMask(a, b, valid, tol, s);
      MismatchMask(a, b, valid, tol, v);
      EXPECT_EQ(s, v) << "MismatchMask n=" << n << " tol=" << tol;
    }

    // Counts of a histogram over part of the pixels, so some buckets are
    // empty, some rare and some common; thresholds on both sides of them.
    std::vector<std::uint64_t> counts(kColorBucketCount, 0);
    for (std::size_t i = 0; i < n; i += 2) {
      ++counts[static_cast<std::size_t>(ColorBucket(a[i]))];
    }
    const auto region = RandomMaskBytes(rng, n, 0.7);
    const auto keep = RandomMaskBytes(rng, n, 0.3);
    for (std::uint64_t min_count : {0, 1, 2, 1000}) {
      std::vector<std::uint8_t> s(n), v(n);
      reference::ColorCountSelect(a, counts, min_count, region, keep, s);
      ColorCountSelect(a, counts, min_count, region, keep, v);
      EXPECT_EQ(s, v) << "ColorCountSelect n=" << n << " min=" << min_count;
    }
  }
}

// The reach table of a disc of radius r2 = float(radius^2), clipped to the
// plane as the morphology layer builds it.
std::vector<std::int32_t> DiscReachTable(double radius, int w, int h) {
  const float r2 = static_cast<float>(radius * radius);
  std::vector<std::int32_t> reach;
  for (std::int64_t g = 0, dx = w - 1; g < h; ++g) {
    while (dx >= 0 && static_cast<float>(dx * dx + g * g) > r2) --dx;
    if (dx < 0) break;
    reach.push_back(static_cast<std::int32_t>(dx));
  }
  return reach;
}

// Every width straddles the 16-byte chunks, masks hold 0x80 and 0xFF bytes,
// and the tables include discs clipped by the plane, flat and tall
// rectangles, and more rows than the plane has. The scratch starts full of
// garbage, and the in-place call must agree too.
TEST(KernelIdentityTest, DiscSpan) {
  synth::Rng rng(14);
  const int shapes[][2] = {{1, 1},   {1, 9},   {9, 1},  {7, 5},  {15, 4},
                           {16, 3},  {17, 6},  {31, 9}, {64, 5}, {65, 7},
                           {197, 31}};
  for (const auto& shape : shapes) {
    const int w = shape[0], h = shape[1];
    const auto n = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
    std::vector<std::vector<std::int32_t>> tables = {
        {0}, {1}, {3}, {0, 0, 0}, {2, 2}, {4, 1}, {20, 20, 20, 20}};
    for (const double r : {1.0, 1.5, 2.0, 3.0, 4.2, 8.5, 12.0}) {
      tables.push_back(DiscReachTable(r, w, h));
    }
    for (const double fill : {0.03, 0.5, 0.95}) {
      const auto mask = RandomMaskBytes(rng, n, fill);
      for (const auto& reach : tables) {
        for (const bool erode : {false, true}) {
          std::vector<std::uint8_t> want(n, 0xAB), got(n, 0xCD);
          std::vector<std::uint8_t> scratch(
              DiscSpanScratchSize(static_cast<std::size_t>(w),
                                  static_cast<std::size_t>(h)),
              0xEE);
          reference::DiscSpan(mask, static_cast<std::size_t>(w), reach, erode,
                              want);
          DiscSpan(mask, static_cast<std::size_t>(w), reach, erode, scratch,
                   got);
          EXPECT_EQ(want, got) << w << "x" << h << " fill=" << fill
                               << " rows=" << reach.size()
                               << " reach0=" << reach[0]
                               << " erode=" << erode;
          std::vector<std::uint8_t> in_place = mask;
          DiscSpan(in_place, static_cast<std::size_t>(w), reach, erode,
                   scratch, in_place);
          EXPECT_EQ(want, in_place) << w << "x" << h << " in place";
        }
      }
    }
  }
}

TEST(KernelIdentityTest, DiffAndThreshold) {
  synth::Rng rng(4);
  for (std::size_t n : kLengths) {
    const auto a = RandomPixels(rng, n);
    const auto b = RandomPixels(rng, n);
    std::vector<float> sf(n), vf(n);
    reference::AbsDiffMax(a, b, sf);
    AbsDiffMax(a, b, vf);
    EXPECT_EQ(sf, vf) << "AbsDiffMax n=" << n;
    EXPECT_EQ(reference::SadRgb(a, b), SadRgb(a, b)) << "SadRgb n=" << n;
    // Bounded SAD must agree even when abandoned: chunk boundaries are part
    // of the contract.
    for (std::uint64_t bound : {std::uint64_t{0}, std::uint64_t{500},
                                std::uint64_t{1} << 40}) {
      EXPECT_EQ(reference::SadRgbBounded(a, b, bound),
                SadRgbBounded(a, b, bound))
          << "SadRgbBounded n=" << n << " bound=" << bound;
    }
    const auto in = RandomFloats(rng, n);
    std::vector<std::uint8_t> s(n), v(n);
    reference::ThresholdGE(in, 128.0f, s);
    ThresholdGE(in, 128.0f, v);
    EXPECT_EQ(s, v) << "ThresholdGE n=" << n;
  }
}

TEST(KernelIdentityTest, HistogramsAndAccumulators) {
  synth::Rng rng(6);
  for (std::size_t n : kLengths) {
    const auto px = RandomPixels(rng, n);
    const auto m = RandomMask(rng, n);
    std::vector<std::uint64_t> sc(kColorBucketCount, 0),
        vc(kColorBucketCount, 0);
    EXPECT_EQ(reference::ColorBucketHistogram(px, m, sc),
              ColorBucketHistogram(px, m, vc));
    EXPECT_EQ(sc, vc) << "ColorBucketHistogram n=" << n;
    std::uint64_t s[3] = {0, 0, 0}, v[3] = {0, 0, 0};
    EXPECT_EQ(reference::MaskedSumRgb(px, m, &s[0], &s[1], &s[2]),
              MaskedSumRgb(px, m, &v[0], &v[1], &v[2]));
    EXPECT_EQ(s[0], v[0]);
    EXPECT_EQ(s[1], v[1]);
    EXPECT_EQ(s[2], v[2]);

    // MaskedAccumulateRgb on pre-seeded accumulators: the doubles hold
    // integer values throughout, so results must be exactly equal.
    std::vector<int> scnt(n, 2), vcnt(n, 2);
    std::vector<double> ssum[6], vsum[6];
    for (int k = 0; k < 6; ++k) {
      ssum[k].assign(n, 100.0);
      vsum[k].assign(n, 100.0);
    }
    EXPECT_EQ(reference::MaskedAccumulateRgb(px, m, scnt, ssum[0], ssum[1],
                                          ssum[2], ssum[3], ssum[4], ssum[5]),
              MaskedAccumulateRgb(px, m, vcnt, vsum[0], vsum[1], vsum[2],
                                       vsum[3], vsum[4], vsum[5]));
    EXPECT_EQ(scnt, vcnt);
    for (int k = 0; k < 6; ++k) EXPECT_EQ(ssum[k], vsum[k]);
  }
}

// Builds a random bounded-match scenario: a gw x gh key grid, sample
// coordinates (some deliberately out of bounds after the shift), and a
// coverage plane.
struct HsvCase {
  std::vector<float> tkey, gkey;
  std::vector<std::uint8_t> tcls, gcls;
  std::vector<std::int32_t> xs, ys;
  std::vector<std::uint8_t> cov;
  std::int32_t gw = 24, gh = 18;

  HsvKeySpan tmpl() const { return {tkey, tcls}; }
  HsvKeySpan grid() const { return {gkey, gcls}; }

  explicit HsvCase(synth::Rng& rng, std::size_t n) {
    const float min_saturation = HsvMatchParams().min_saturation;
    const auto random_key = [&] {
      return HsvKeyOf({static_cast<std::uint8_t>(rng.UniformInt(0, 255)),
                       static_cast<std::uint8_t>(rng.UniformInt(0, 255)),
                       static_cast<std::uint8_t>(rng.UniformInt(0, 255))},
                      min_saturation);
    };
    const auto cells = static_cast<std::size_t>(gw) * gh;
    for (std::size_t i = 0; i < cells; ++i) {
      const HsvKey k = random_key();
      gkey.push_back(k.key);
      gcls.push_back(k.cls);
      cov.push_back(rng.Chance(0.7) ? kMaskSet : kMaskClear);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const int x = rng.UniformInt(-4, gw + 3);
      const int y = rng.UniformInt(-4, gh + 3);
      xs.push_back(x);
      ys.push_back(y);
      // Bias half the samples toward matching the grid pixel underneath.
      if (rng.Chance(0.5) && x >= 0 && x < gw && y >= 0 && y < gh) {
        const auto at = static_cast<std::size_t>(y) * gw + x;
        tkey.push_back(gkey[at]);
        tcls.push_back(gcls[at]);
      } else {
        const HsvKey k = random_key();
        tkey.push_back(k.key);
        tcls.push_back(k.cls);
      }
    }
  }
};

TEST(KernelIdentityTest, MatchHsvBoundedIncludingAbandonedPartials) {
  synth::Rng rng(7);
  const HsvMatchParams params;
  for (std::size_t n : kLengths) {
    const HsvCase c(rng, n);
    struct Bound {
      std::int64_t m, cmp;
      bool tie;
      std::int32_t min_c;
    };
    // Unbounded, a tight incumbent (forces abandonment at chunk
    // boundaries), a tie-winning incumbent, and a min_compared floor.
    const Bound bounds[] = {{0, 0, false, 0},
                            {9, 10, false, 0},
                            {9, 10, true, 0},
                            {1, 2, false, static_cast<std::int32_t>(n)}};
    for (const auto& bd : bounds) {
      for (int dx : {-3, 0, 5}) {
        const WindowScore s = reference::MatchHsvBounded(
            c.tmpl(), c.xs, c.ys, c.grid(), c.gw, c.gh, c.cov, dx, 2, params,
            bd.m, bd.cmp, bd.tie, bd.min_c);
        const WindowScore v = MatchHsvBounded(
            c.tmpl(), c.xs, c.ys, c.grid(), c.gw, c.gh, c.cov, dx, 2, params,
            bd.m, bd.cmp, bd.tie, bd.min_c);
        EXPECT_EQ(s.matched, v.matched) << "n=" << n << " dx=" << dx;
        EXPECT_EQ(s.compared, v.compared) << "n=" << n << " dx=" << dx;
        EXPECT_EQ(s.abandoned, v.abandoned) << "n=" << n << " dx=" << dx;
        // Empty coverage means every in-bounds pixel is eligible.
        const WindowScore s2 = reference::MatchHsvBounded(
            c.tmpl(), c.xs, c.ys, c.grid(), c.gw, c.gh, {}, dx, 2, params,
            bd.m, bd.cmp, bd.tie, bd.min_c);
        const WindowScore v2 = MatchHsvBounded(
            c.tmpl(), c.xs, c.ys, c.grid(), c.gw, c.gh, {}, dx, 2, params,
            bd.m, bd.cmp, bd.tie, bd.min_c);
        EXPECT_EQ(s2.matched, v2.matched);
        EXPECT_EQ(s2.compared, v2.compared);
        EXPECT_EQ(s2.abandoned, v2.abandoned);
      }
    }
  }
}

TEST(KernelIdentityTest, MatchHsvBoundedAbandonmentIsExact) {
  // An abandoned window really could not have beaten the incumbent: replay
  // without a bound and check the completed fraction against it.
  synth::Rng rng(8);
  const HsvMatchParams params;
  int abandoned_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const HsvCase c(rng, 160);
    const std::int64_t bm = rng.UniformInt(10, 150);
    const std::int64_t bc = bm + rng.UniformInt(0, 30);
    const WindowScore bounded =
        MatchHsvBounded(c.tmpl(), c.xs, c.ys, c.grid(), c.gw, c.gh, c.cov, 1,
                        -2, params, bm, bc, false, 0);
    const WindowScore full =
        MatchHsvBounded(c.tmpl(), c.xs, c.ys, c.grid(), c.gw, c.gh, c.cov, 1,
                        -2, params, 0, 0, false, 0);
    if (bounded.abandoned) {
      ++abandoned_seen;
      EXPECT_FALSE(
          FractionGreater(full.matched, full.compared, bm, bc))
          << "abandoned a window that beats the incumbent";
    } else {
      EXPECT_EQ(bounded.matched, full.matched);
      EXPECT_EQ(bounded.compared, full.compared);
    }
  }
  EXPECT_GT(abandoned_seen, 0) << "bounds never triggered; test is vacuous";
}

TEST(KernelIdentityTest, RgbToHsvKeys) {
  synth::Rng rng(9);
  for (std::size_t n : kLengths) {
    const auto px = RandomPixels(rng, n);
    const auto valid = RandomMask(rng, n);
    for (const float min_saturation : {0.0f, 0.15f, 0.5f}) {
      for (const bool gated : {false, true}) {
        const std::span<const std::uint8_t> v =
            gated ? std::span<const std::uint8_t>(valid)
                  : std::span<const std::uint8_t>();
        std::vector<float> skey(n), vkey(n);
        std::vector<std::uint8_t> scls(n), vcls(n);
        reference::RgbToHsvKeys(px, v, min_saturation, skey, scls);
        RgbToHsvKeys(px, v, min_saturation, vkey, vcls);
        EXPECT_EQ(skey, vkey) << "n=" << n;
        EXPECT_EQ(scls, vcls) << "n=" << n;
      }
    }
  }
}

TEST(KernelIdentityTest, MatchHsvLattice) {
  // A padded plane with ineligible cells inside and around it, a random
  // sample set indexed into its interior, and a lattice of offsets that
  // reach into the padding.
  synth::Rng rng(10);
  const HsvMatchParams params;
  constexpr int kPad = 5, kW = 23, kH = 17;
  constexpr int kPw = kW + 2 * kPad, kPh = kH + 2 * kPad;
  std::vector<float> pkey(static_cast<std::size_t>(kPw) * kPh, 0.0f);
  std::vector<std::uint8_t> pcls(pkey.size(), kHsvIneligible);
  for (int y = 0; y < kH; ++y) {
    for (int x = 0; x < kW; ++x) {
      const auto at = static_cast<std::size_t>(y + kPad) * kPw + x + kPad;
      const HsvKey k = HsvKeyOf(RandomPixels(rng, 1)[0],
                                params.min_saturation);
      pkey[at] = k.key;
      pcls[at] = rng.Chance(0.8) ? k.cls : kHsvIneligible;
    }
  }
  std::vector<std::int32_t> offsets;
  for (int dy = -kPad; dy <= kPad; dy += 2) {
    for (int dx = -kPad; dx <= kPad; dx += 3) {
      offsets.push_back(dy * kPw + dx);
    }
  }
  for (std::size_t n : kLengths) {
    std::vector<float> key, tol;
    std::vector<std::uint8_t> cls;
    std::vector<std::int32_t> base;
    for (std::size_t k = 0; k < n; ++k) {
      const int x = rng.UniformInt(0, kW - 1);
      const int y = rng.UniformInt(0, kH - 1);
      base.push_back((y + kPad) * kPw + x + kPad);
      // Half the samples copy a plane cell near them, so matches happen.
      const auto near = static_cast<std::size_t>(
          base.back() + offsets[static_cast<std::size_t>(
                            rng.UniformInt(0, static_cast<int>(
                                                  offsets.size()) - 1))]);
      HsvKey hk = HsvKeyOf(RandomPixels(rng, 1)[0], params.min_saturation);
      if (rng.Chance(0.5) && pcls[near] != kHsvIneligible) {
        hk = {pkey[near], pcls[near]};
      }
      key.push_back(hk.key);
      cls.push_back(hk.cls);
      tol.push_back(HsvTolerance(hk.cls, params));
    }
    std::vector<std::int32_t> sm(offsets.size()), sc(offsets.size());
    std::vector<std::int32_t> vm(offsets.size()), vc(offsets.size());
    reference::MatchHsvLattice({key, cls}, tol, base, {pkey, pcls}, offsets,
                               sm, sc);
    MatchHsvLattice({key, cls}, tol, base, {pkey, pcls}, offsets, vm, vc);
    EXPECT_EQ(sm, vm) << "n=" << n;
    EXPECT_EQ(sc, vc) << "n=" << n;
    if (n >= 64) {
      EXPECT_GT(*std::max_element(vm.begin(), vm.end()), 0) << "n=" << n;
    }
  }
}

// ---- Exact HSV match keys ---------------------------------------------------

// RgbToHsv as it was written before the keys: the textbook fmod(..., 6)
// on the red-maximum branch, which the product version leaves out.
Hsv RgbToHsvWithFmod(Rgb8 c) {
  const float r = c.r / 255.0f;
  const float g = c.g / 255.0f;
  const float b = c.b / 255.0f;
  const float mx = std::max(std::max(r, g), b);
  const float mn = std::min(std::min(r, g), b);
  const float d = mx - mn;
  Hsv out;
  out.v = mx;
  out.s = (mx <= 0.0f) ? 0.0f : d / mx;
  if (d <= 0.0f) {
    out.h = 0.0f;
  } else if (mx == r) {
    out.h = 60.0f * std::fmod((g - b) / d, 6.0f);
  } else if (mx == g) {
    out.h = 60.0f * ((b - r) / d + 2.0f);
  } else {
    out.h = 60.0f * ((r - g) / d + 4.0f);
  }
  if (out.h < 0.0f) out.h += 360.0f;
  return out;
}

std::uint32_t Bits(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

TEST(HsvKeyExactnessTest, RgbToHsvMatchesTheFmodFormOnEveryColor) {
  std::uint64_t mismatches = 0;
  float max_hue = 0.0f;
  bool negative_zero = false;
  for (std::uint32_t rgb = 0; rgb < (1u << 24); ++rgb) {
    const Rgb8 c{static_cast<std::uint8_t>(rgb >> 16),
                 static_cast<std::uint8_t>(rgb >> 8),
                 static_cast<std::uint8_t>(rgb)};
    const Hsv want = RgbToHsvWithFmod(c);
    const Hsv got = RgbToHsv(c);
    mismatches += static_cast<std::uint64_t>(
        Bits(want.h) != Bits(got.h) || Bits(want.s) != Bits(got.s) ||
        Bits(want.v) != Bits(got.v));
    max_hue = std::max(max_hue, got.h);
    negative_zero |= std::signbit(got.h);
  }
  EXPECT_EQ(mismatches, 0u);
  // The key predicate's fold needs every hue in [0, 360).
  EXPECT_LT(max_hue, 360.0f);
  EXPECT_FALSE(negative_zero);
}

// Colors that sit on the predicate's edges: near-gray pixels whose
// saturation is close to 0.15, hues just either side of 0/360, gray
// ramps whose value gaps straddle 0.22, and random fill.
std::vector<Rgb8> EdgeColors() {
  std::vector<Rgb8> out;
  const auto u8 = [](int v) { return static_cast<std::uint8_t>(v); };
  for (int mx = 1; mx < 256; ++mx) {
    // s = (mx - mn) / mx close to 0.15 (and the default min_saturation).
    const int center = mx - static_cast<int>(std::lround(0.15 * mx));
    for (int mn = std::max(0, center - 1); mn <= std::min(mx, center + 1);
         ++mn) {
      out.push_back({u8(mx), u8(mn), u8(mn)});
      out.push_back({u8(mn), u8(mx), u8((mx + mn) / 2)});
    }
  }
  for (int k = 0; k < 256; k += 3) {
    out.push_back({255, 0, u8(k)});  // hue just below 360
    out.push_back({255, u8(k), 0});  // hue just above 0
    out.push_back({u8(k), u8(k), u8(k)});  // gray ramp
    out.push_back({u8(k), u8(std::min(255, k + 2)), u8(k)});
  }
  synth::Rng rng(11);
  for (const Rgb8& p : RandomPixels(rng, 600)) out.push_back(p);
  return out;
}

TEST(HsvKeyExactnessTest, KeyPredicateEqualsHsvPredicateOnEdgePairs) {
  const std::vector<Rgb8> colors = EdgeColors();
  std::vector<Hsv> hsv;
  for (const Rgb8& c : colors) hsv.push_back(RgbToHsv(c));
  std::uint64_t pairs = 0, matches = 0, mismatches = 0;
  for (const HsvMatchParams params :
       {HsvMatchParams{}, HsvMatchParams{0.15f, 18.0f, 0.22f},
        HsvMatchParams{0.3f, 5.0f, 0.05f}, HsvMatchParams{0.0f, 180.0f, 1.0f}}) {
    std::vector<HsvKey> keys;
    for (const Rgb8& c : colors) keys.push_back(HsvKeyOf(c, params.min_saturation));
    for (std::size_t a = 0; a < colors.size(); ++a) {
      const float tol = HsvTolerance(keys[a].cls, params);
      for (std::size_t b = 0; b < colors.size(); ++b) {
        const bool want = reference::HsvPixelsMatch(hsv[a], hsv[b], params);
        const bool got = HsvKeysMatch(keys[a].key, keys[a].cls, keys[b].key,
                                      keys[b].cls, tol);
        ++pairs;
        matches += want;
        mismatches += want != got;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << pairs << " pairs";
  // Both outcomes are well represented.
  EXPECT_GT(matches, pairs / 50);
  EXPECT_LT(matches, pairs - pairs / 50);
}

TEST(FractionCompareTest, CrossMultiplicationMatchesDoubles) {
  EXPECT_TRUE(FractionGreater(3, 4, 1, 2));    // 0.75 > 0.5
  EXPECT_FALSE(FractionGreater(1, 2, 3, 4));
  EXPECT_FALSE(FractionGreater(2, 4, 1, 2));   // equal
  EXPECT_TRUE(FractionEqual(2, 4, 1, 2));
  EXPECT_FALSE(FractionEqual(2, 4, 1, 3));
  // Empty scores lose to everything and equal only each other.
  EXPECT_FALSE(FractionGreater(0, 0, 0, 1));
  EXPECT_TRUE(FractionGreater(0, 1, 0, 0));
  EXPECT_TRUE(FractionEqual(0, 0, 0, 0));
  EXPECT_FALSE(FractionEqual(0, 0, 0, 5));
  // Distinguishes fractions adjacent at double precision's edge.
  EXPECT_TRUE(FractionGreater(1000001, 2000001, 1000000, 2000000));
}

}  // namespace
}  // namespace bb::imaging::kernels
