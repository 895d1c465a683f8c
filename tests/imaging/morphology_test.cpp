#include "imaging/morphology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "imaging/draw.h"

namespace bb::imaging {
namespace {

// Brute-force reference distance transform.
FloatImage BruteForceSquaredDistance(const Bitmap& mask) {
  FloatImage out(mask.width(), mask.height(),
                 std::numeric_limits<float>::max() / 8.0f);
  for (int y = 0; y < mask.height(); ++y) {
    for (int x = 0; x < mask.width(); ++x) {
      float best = out(x, y);
      for (int sy = 0; sy < mask.height(); ++sy) {
        for (int sx = 0; sx < mask.width(); ++sx) {
          if (!mask(sx, sy)) continue;
          const float d = static_cast<float>((x - sx) * (x - sx) +
                                             (y - sy) * (y - sy));
          best = std::min(best, d);
        }
      }
      out(x, y) = best;
    }
  }
  return out;
}

TEST(MorphologyTest, DistanceTransformZeroInsideSet) {
  Bitmap m(8, 8);
  FillRect(m, {2, 2, 3, 3});
  const FloatImage d = SquaredDistanceToSet(m);
  for (int y = 2; y < 5; ++y) {
    for (int x = 2; x < 5; ++x) EXPECT_FLOAT_EQ(d(x, y), 0.0f);
  }
  EXPECT_FLOAT_EQ(d(5, 2), 1.0f);
  EXPECT_FLOAT_EQ(d(6, 2), 4.0f);
  EXPECT_FLOAT_EQ(d(6, 6), 8.0f);  // diagonal 2,2 from (4,4)
}

// Property: exact transform matches brute force on random masks.
class DistanceTransformPropertyTest
    : public ::testing::TestWithParam<int> {};

TEST_P(DistanceTransformPropertyTest, MatchesBruteForce) {
  std::uint64_t s = static_cast<std::uint64_t>(GetParam()) * 48271u + 3;
  auto next = [&s]() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  Bitmap m(13, 9);
  for (auto& v : m.pixels()) v = (next() % 5) == 0;
  if (CountSet(m) == 0) m(0, 0) = kMaskSet;

  const FloatImage fast = SquaredDistanceToSet(m);
  const FloatImage slow = BruteForceSquaredDistance(m);
  for (int y = 0; y < m.height(); ++y) {
    for (int x = 0; x < m.width(); ++x) {
      // Exact: the disc kernels' equivalence argument rests on it.
      EXPECT_EQ(fast(x, y), slow(x, y)) << x << "," << y;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistanceTransformPropertyTest,
                         ::testing::Range(0, 10));

TEST(MorphologyTest, DilateDiscGrowsByRadius) {
  Bitmap m(15, 15);
  m(7, 7) = kMaskSet;
  const Bitmap d = DilateDisc(m, 3.0);
  EXPECT_TRUE(d(7, 7));
  EXPECT_TRUE(d(7, 4));   // distance 3
  EXPECT_TRUE(d(9, 9));   // distance 2.83
  EXPECT_FALSE(d(7, 3));  // distance 4
  EXPECT_FALSE(d(10, 10));
}

TEST(MorphologyTest, DilateZeroRadiusIsIdentity) {
  Bitmap m(5, 5);
  m(2, 2) = kMaskSet;
  EXPECT_EQ(DilateDisc(m, 0.0), m);
  EXPECT_EQ(DilateDisc(m, -1.0), m);
}

TEST(MorphologyTest, ErodeShrinksByRadius) {
  Bitmap m(15, 15);
  FillCircle(m, 7, 7, 5);
  const Bitmap e = ErodeDisc(m, 2.0);
  EXPECT_TRUE(e(7, 7));
  EXPECT_FALSE(e(7, 2));  // was boundary
  EXPECT_LT(CountSet(e), CountSet(m));
}

TEST(MorphologyTest, ErodeThenDilateRemovesSmallSpecks) {
  Bitmap m(20, 20);
  FillCircle(m, 6, 6, 4);
  m(15, 15) = kMaskSet;  // speck
  const Bitmap opened = OpenDisc(m, 1.5);
  EXPECT_FALSE(opened(15, 15));
  EXPECT_TRUE(opened(6, 6));
}

TEST(MorphologyTest, CloseFillsSmallHoles) {
  Bitmap m(20, 20);
  FillCircle(m, 10, 10, 6);
  m(10, 10) = kMaskClear;  // pinhole
  const Bitmap closed = CloseDisc(m, 1.5);
  EXPECT_TRUE(closed(10, 10));
}

TEST(MorphologyTest, BoundaryRingExcludesMask) {
  Bitmap m(15, 15);
  FillCircle(m, 7, 7, 3);
  const Bitmap ring = BoundaryRing(m, 2.0);
  EXPECT_EQ(CountSet(And(ring, m)), 0u);
  EXPECT_TRUE(ring(7, 2));   // 2 outside the radius-3 disc edge
  EXPECT_FALSE(ring(7, 7));
  EXPECT_FALSE(ring(0, 0));
}

TEST(MorphologyTest, DilationMonotoneInRadius) {
  Bitmap m(21, 21);
  FillRect(m, {9, 9, 3, 3});
  const Bitmap d2 = DilateDisc(m, 2.0);
  const Bitmap d5 = DilateDisc(m, 5.0);
  // d2 subset of d5.
  EXPECT_EQ(CountSet(AndNot(d2, d5)), 0u);
  EXPECT_LT(CountSet(d2), CountSet(d5));
}

TEST(MorphologyTest, EmptyMaskDilatesToEmpty) {
  Bitmap m(6, 6);
  EXPECT_EQ(CountSet(DilateDisc(m, 3.0)), 0u);
}

TEST(MorphologyTest, TallMaskReachesBeyondSixteenBitOffsets) {
  // Column distances past 65534 rows need the wide distance plane.
  Bitmap strip(1, 70000);
  strip(0, 0) = kMaskSet;
  EXPECT_EQ(CountSet(DilateDisc(strip, 69000.5)), 69001u);
  EXPECT_EQ(CountSet(ErodeDisc(Not(strip), 66000.0)), 70000u - 66001u);
}

TEST(MorphologyTest, FullMaskStaysFullUnderErosion) {
  // Border convention: pixels outside the image count as set, so a full
  // mask has no boundary to erode from.
  Bitmap m(8, 8, kMaskSet);
  const Bitmap e = ErodeDisc(m, 1.0);
  EXPECT_EQ(CountSet(e), m.pixel_count());
}

// ---- Exactness against the distance-transform definition ------------------
//
// The disc operations are defined as thresholding the exact squared
// Euclidean distance transform at float(radius * radius), with erosion the
// complement of dilating the complement. These test-local references build
// every operation that way; the production kernels must match them bit for
// bit on every mask, shape and radius below, including the edge radii.

Bitmap ReferenceDilate(const Bitmap& mask, double radius) {
  if (radius <= 0.0) return mask;
  const FloatImage dist = SquaredDistanceToSet(mask);
  const float r2 = static_cast<float>(radius * radius);
  Bitmap out(mask.width(), mask.height());
  for (int y = 0; y < mask.height(); ++y) {
    for (int x = 0; x < mask.width(); ++x) {
      out(x, y) = dist(x, y) <= r2 ? kMaskSet : kMaskClear;
    }
  }
  return out;
}

Bitmap ReferenceErode(const Bitmap& mask, double radius) {
  if (radius <= 0.0) return mask;
  return Not(ReferenceDilate(Not(mask), radius));
}

struct Shape {
  int width;
  int height;
};

class DiscMorphologyExactnessTest : public ::testing::TestWithParam<Shape> {};

std::vector<std::pair<std::string, Bitmap>> ExactnessMasks(int w, int h) {
  std::uint64_t s = static_cast<std::uint64_t>(w) * 7919u + h;
  auto next = [&s]() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  Bitmap sparse(w, h), dense(w, h), blob(w, h), high_bytes(w, h);
  for (auto& v : sparse.pixels()) v = (next() % 40) == 0;
  for (auto& v : dense.pixels()) v = (next() % 4) != 0;
  // Any non-zero byte counts as set, not only kMaskSet.
  for (auto& v : high_bytes.pixels()) {
    const std::uint64_t r = next() % 6;
    v = r == 0 ? 0x80 : (r == 1 ? 0xFF : 0);
  }
  // A filled body with a hole, a thin limb and a detached speck.
  FillCircle(blob, w / 2, h / 2, std::min(w, h) / 3);
  FillCircle(blob, w / 2, h / 2, std::min(w, h) / 10, kMaskClear);
  FillRect(blob, {0, h / 2, w / 2, 1});
  if (w > 0 && h > 0) blob(w - 1, 0) = kMaskSet;
  return {{"random-sparse", sparse},
          {"random-dense", dense},
          {"high-bytes", high_bytes},
          {"blob", blob},
          {"all-set", Bitmap(w, h, kMaskSet)},
          {"all-clear", Bitmap(w, h, kMaskClear)}};
}

TEST_P(DiscMorphologyExactnessTest, MatchesEdtThreshold) {
  const Shape shape = GetParam();
  const double beyond_diagonal = std::hypot(shape.width, shape.height) + 1.0;
  // The two sides of the row-span/sweep choice: the widest disc whose
  // extent stays within kDiscSpanMaxExtent (r2 just below (max + 1)^2) and
  // the smallest one beyond it, where the image does not clip them.
  const float first_sweep_r2 = static_cast<float>(
      (kDiscSpanMaxExtent + 1) * (kDiscSpanMaxExtent + 1));
  const double last_span = std::sqrt(
      static_cast<double>(std::nextafter(first_sweep_r2, 0.0f)));
  const double first_sweep = kDiscSpanMaxExtent + 1.0;
  const std::vector<double> radii = {
      0.3, 0.5, 1.0, std::sqrt(2.0), 1.5, 2.0, 2.5, 3.0, 4.0, 4.2, 7.5,
      last_span, first_sweep, 20.0, 48.0, beyond_diagonal,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity()};
  for (const auto& [name, mask] : ExactnessMasks(shape.width, shape.height)) {
    for (const double r : radii) {
      const std::string what = name + " r=" + std::to_string(r);
      const Bitmap dilated = ReferenceDilate(mask, r);
      const Bitmap eroded = ReferenceErode(mask, r);
      const Bitmap closed = ReferenceErode(dilated, r);
      EXPECT_EQ(DilateDisc(mask, r), dilated) << "dilate " << what;
      EXPECT_EQ(ErodeDisc(mask, r), eroded) << "erode " << what;
      EXPECT_EQ(CloseDisc(mask, r), closed) << "close " << what;
      EXPECT_EQ(OpenDisc(mask, r), ReferenceDilate(eroded, r))
          << "open " << what;
      EXPECT_EQ(BoundaryRing(mask, r), AndNot(dilated, mask))
          << "ring " << what;
      // The forms that write into a caller's bitmap, in place too.
      Bitmap out(3, 2, kMaskSet), in_place = mask;
      DilateDisc(mask, r, &out);
      EXPECT_EQ(out, dilated) << "dilate into " << what;
      DilateDisc(in_place, r, &in_place);
      EXPECT_EQ(in_place, dilated) << "dilate in place " << what;
      in_place = mask;
      ErodeDisc(in_place, r, &in_place);
      EXPECT_EQ(in_place, eroded) << "erode in place " << what;
      in_place = mask;
      CloseDisc(in_place, r, &in_place);
      EXPECT_EQ(in_place, closed) << "close in place " << what;
    }
  }
}

// 197 x 31 is wider than 64 columns and no multiple of 8 or 16, so the
// row-span path ends every row in a partial chunk.
INSTANTIATE_TEST_SUITE_P(Shapes, DiscMorphologyExactnessTest,
                         ::testing::Values(Shape{192, 144}, Shape{197, 31},
                                           Shape{13, 9}, Shape{1, 17},
                                           Shape{17, 1}, Shape{0, 0}));

}  // namespace
}  // namespace bb::imaging
