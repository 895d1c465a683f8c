#include "imaging/kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
    reference::ThresholdLE(in, 128.0f, s);
    ThresholdLE(in, 128.0f, v);
    EXPECT_EQ(s, v) << "ThresholdLE n=" << n;
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

// Builds a random bounded-match scenario: a gw x gh HSV grid, sample
// coordinates (some deliberately out of bounds after the shift), and a
// coverage plane.
struct HsvCase {
  std::vector<Hsv> tmpl;
  std::vector<std::int32_t> xs, ys;
  std::vector<Hsv> grid;
  std::vector<std::uint8_t> cov;
  std::int32_t gw = 24, gh = 18;

  explicit HsvCase(synth::Rng& rng, std::size_t n) {
    grid.resize(static_cast<std::size_t>(gw) * gh);
    cov.resize(grid.size());
    for (auto& g : grid) {
      g = RgbToHsv({static_cast<std::uint8_t>(rng.UniformInt(0, 255)),
                    static_cast<std::uint8_t>(rng.UniformInt(0, 255)),
                    static_cast<std::uint8_t>(rng.UniformInt(0, 255))});
    }
    for (auto& c : cov) c = rng.Chance(0.7) ? kMaskSet : kMaskClear;
    for (std::size_t i = 0; i < n; ++i) {
      const int x = rng.UniformInt(-4, gw + 3);
      const int y = rng.UniformInt(-4, gh + 3);
      xs.push_back(x);
      ys.push_back(y);
      // Bias half the samples toward matching the grid pixel underneath.
      if (rng.Chance(0.5) && x >= 0 && x < gw && y >= 0 && y < gh) {
        tmpl.push_back(grid[static_cast<std::size_t>(y) * gw + x]);
      } else {
        tmpl.push_back(
            RgbToHsv({static_cast<std::uint8_t>(rng.UniformInt(0, 255)),
                      static_cast<std::uint8_t>(rng.UniformInt(0, 255)),
                      static_cast<std::uint8_t>(rng.UniformInt(0, 255))}));
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
            c.tmpl, c.xs, c.ys, c.grid, c.gw, c.gh, c.cov, dx, 2, params,
            bd.m, bd.cmp, bd.tie, bd.min_c);
        const WindowScore v = MatchHsvBounded(
            c.tmpl, c.xs, c.ys, c.grid, c.gw, c.gh, c.cov, dx, 2, params,
            bd.m, bd.cmp, bd.tie, bd.min_c);
        EXPECT_EQ(s.matched, v.matched) << "n=" << n << " dx=" << dx;
        EXPECT_EQ(s.compared, v.compared) << "n=" << n << " dx=" << dx;
        EXPECT_EQ(s.abandoned, v.abandoned) << "n=" << n << " dx=" << dx;
        // Empty coverage means every in-bounds pixel is eligible.
        const WindowScore s2 = reference::MatchHsvBounded(
            c.tmpl, c.xs, c.ys, c.grid, c.gw, c.gh, {}, dx, 2, params, bd.m,
            bd.cmp, bd.tie, bd.min_c);
        const WindowScore v2 = MatchHsvBounded(
            c.tmpl, c.xs, c.ys, c.grid, c.gw, c.gh, {}, dx, 2, params, bd.m,
            bd.cmp, bd.tie, bd.min_c);
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
        MatchHsvBounded(c.tmpl, c.xs, c.ys, c.grid, c.gw, c.gh, c.cov, 1, -2,
                        params, bm, bc, false, 0);
    const WindowScore full =
        MatchHsvBounded(c.tmpl, c.xs, c.ys, c.grid, c.gw, c.gh, c.cov, 1, -2,
                        params, 0, 0, false, 0);
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
