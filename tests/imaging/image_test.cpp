#include "imaging/image.h"

#include <gtest/gtest.h>

#include "imaging/geometry.h"

namespace bb::imaging {
namespace {

TEST(ImageTest, DefaultConstructedIsEmpty) {
  Image img;
  EXPECT_TRUE(img.empty());
  EXPECT_EQ(img.width(), 0);
  EXPECT_EQ(img.height(), 0);
  EXPECT_EQ(img.pixel_count(), 0u);
}

TEST(ImageTest, ConstructionFillsWithValue) {
  Image img(4, 3, Rgb8{10, 20, 30});
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.pixel_count(), 12u);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 4; ++x) {
      EXPECT_EQ(img(x, y), (Rgb8{10, 20, 30}));
    }
  }
}

TEST(ImageTest, NegativeDimensionsThrow) {
  EXPECT_THROW(Image(-1, 3), std::invalid_argument);
  EXPECT_THROW(Image(3, -1), std::invalid_argument);
}

TEST(ImageTest, AtThrowsOutOfRange) {
  Image img(2, 2);
  EXPECT_THROW(img.at(2, 0), std::out_of_range);
  EXPECT_THROW(img.at(0, 2), std::out_of_range);
  EXPECT_THROW(img.at(-1, 0), std::out_of_range);
  EXPECT_NO_THROW(img.at(1, 1));
}

TEST(ImageTest, AtClampedReadsEdges) {
  Image img(2, 2);
  img(0, 0) = {1, 1, 1};
  img(1, 1) = {2, 2, 2};
  EXPECT_EQ(img.AtClamped(-5, -5), (Rgb8{1, 1, 1}));
  EXPECT_EQ(img.AtClamped(10, 10), (Rgb8{2, 2, 2}));
}

TEST(ImageTest, AtOrReturnsFallbackOutside) {
  Bitmap mask(2, 2, 1);
  EXPECT_EQ(mask.AtOr(0, 0, 7), 1);
  EXPECT_EQ(mask.AtOr(5, 5, 7), 7);
}

TEST(ImageTest, RowPointsIntoStorage) {
  Image img(3, 2);
  img.row(1)[2] = {9, 9, 9};
  EXPECT_EQ(img(2, 1), (Rgb8{9, 9, 9}));
}

TEST(ImageTest, RowSpanHasExactlyWidthElements) {
  Image img(7, 3);
  EXPECT_EQ(img.row(0).size(), 7u);
  EXPECT_EQ(img.row(2).size(), 7u);
  const Image& cimg = img;
  EXPECT_EQ(cimg.row(1).size(), 7u);
  // Consecutive rows tile the flat storage without gaps. This asserts
  // the layout itself, so it must look at raw pointers.
  // bblint: allow(no-raw-pixel-indexing)
  EXPECT_EQ(img.row(0).data() + img.width(), img.row(1).data());
}

TEST(ImageTest, AtThrowsOnEveryOutOfBoundsEdge) {
  Image img(4, 3);
  const Image& cimg = img;
  EXPECT_NO_THROW(img.at(0, 0));
  EXPECT_NO_THROW(img.at(3, 2));
  EXPECT_THROW(img.at(-1, 0), std::out_of_range);   // left
  EXPECT_THROW(img.at(4, 0), std::out_of_range);    // right
  EXPECT_THROW(img.at(0, -1), std::out_of_range);   // top
  EXPECT_THROW(img.at(0, 3), std::out_of_range);    // bottom
  EXPECT_THROW(cimg.at(-1, -1), std::out_of_range);  // const overload
  EXPECT_THROW(cimg.at(4, 3), std::out_of_range);
}

TEST(ImageTest, AtThrowsOnEmptyImage) {
  Image img;
  EXPECT_THROW(img.at(0, 0), std::out_of_range);
}

TEST(ImageTest, InBoundsAtTheLimits) {
  Image img(4, 3);
  EXPECT_TRUE(img.InBounds(0, 0));
  EXPECT_TRUE(img.InBounds(3, 0));
  EXPECT_TRUE(img.InBounds(0, 2));
  EXPECT_TRUE(img.InBounds(3, 2));
  EXPECT_FALSE(img.InBounds(-1, 0));
  EXPECT_FALSE(img.InBounds(0, -1));
  EXPECT_FALSE(img.InBounds(4, 0));
  EXPECT_FALSE(img.InBounds(0, 3));
}

TEST(ImageTest, NegativeDimensionsThrowForEveryPixelType) {
  EXPECT_THROW(Bitmap(-3, -3), std::invalid_argument);
  EXPECT_THROW(FloatImage(-1, 0), std::invalid_argument);
}

TEST(ImageTest, ZeroDimensionsAreEmptyNotAnError) {
  Image img(0, 5);
  EXPECT_TRUE(img.empty());
  EXPECT_EQ(img.pixel_count(), 0u);
  EXPECT_FALSE(img.InBounds(0, 0));
}

TEST(ImageTest, EqualityIsValueBased) {
  Image a(2, 2, Rgb8{1, 2, 3});
  Image b(2, 2, Rgb8{1, 2, 3});
  EXPECT_EQ(a, b);
  b(1, 1) = {0, 0, 0};
  EXPECT_NE(a, b);
}

TEST(ImageTest, SameShape) {
  Image a(3, 2), b(3, 2), c(2, 3);
  EXPECT_TRUE(a.SameShape(b));
  EXPECT_FALSE(a.SameShape(c));
}

TEST(ImageTest, ReshapeKeepsStorageThatIsLargeEnough) {
  Bitmap m(8, 6, kMaskSet);
  const std::uint8_t* storage = m.pixels().data();
  m.Reshape(4, 3);
  EXPECT_EQ(m.width(), 4);
  EXPECT_EQ(m.height(), 3);
  EXPECT_EQ(m.pixel_count(), 12u);
  EXPECT_EQ(m.row(2).size(), 4u);
  m.Reshape(6, 8);
  EXPECT_EQ(m.pixel_count(), 48u);
  EXPECT_EQ(m.pixels().data(), storage);
  m.Reshape(0, 0);
  EXPECT_TRUE(m.empty());
  EXPECT_THROW(m.Reshape(-1, 2), std::invalid_argument);
}

TEST(BitmapOpsTest, CountSetAndFraction) {
  Bitmap m(4, 4);
  EXPECT_EQ(CountSet(m), 0u);
  EXPECT_DOUBLE_EQ(SetFraction(m), 0.0);
  m(0, 0) = 1;
  m(3, 3) = 1;
  EXPECT_EQ(CountSet(m), 2u);
  EXPECT_DOUBLE_EQ(SetFraction(m), 2.0 / 16.0);
}

TEST(BitmapOpsTest, SetFractionOfEmptyMaskIsZero) {
  Bitmap m;
  EXPECT_DOUBLE_EQ(SetFraction(m), 0.0);
}

TEST(BitmapOpsTest, BooleanOps) {
  Bitmap a(2, 1), b(2, 1);
  a(0, 0) = 1;
  b(1, 0) = 1;
  const Bitmap both = Or(a, b);
  EXPECT_EQ(CountSet(both), 2u);
  EXPECT_EQ(CountSet(And(a, b)), 0u);
  EXPECT_EQ(CountSet(AndNot(both, a)), 1u);
  EXPECT_TRUE(AndNot(both, a)(1, 0));
  const Bitmap na = Not(a);
  EXPECT_FALSE(na(0, 0));
  EXPECT_TRUE(na(1, 0));
}

TEST(BitmapOpsTest, BooleanOpsRejectShapeMismatch) {
  Bitmap a(2, 2), b(3, 2);
  EXPECT_THROW(And(a, b), std::invalid_argument);
  EXPECT_THROW(Or(a, b), std::invalid_argument);
  EXPECT_THROW(AndNot(a, b), std::invalid_argument);
}

TEST(BitmapOpsTest, Iou) {
  Bitmap a(4, 1), b(4, 1);
  a(0, 0) = a(1, 0) = 1;
  b(1, 0) = b(2, 0) = 1;
  EXPECT_DOUBLE_EQ(Iou(a, b), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(Iou(a, a), 1.0);
  Bitmap empty(4, 1);
  EXPECT_DOUBLE_EQ(Iou(empty, empty), 1.0);
  EXPECT_DOUBLE_EQ(Iou(a, empty), 0.0);
}

TEST(RectTest, IntersectAndUnion) {
  Rect a{0, 0, 4, 4}, b{2, 2, 4, 4};
  EXPECT_EQ(a.Intersect(b), (Rect{2, 2, 2, 2}));
  EXPECT_EQ(a.Union(b), (Rect{0, 0, 6, 6}));
  Rect apart{10, 10, 2, 2};
  EXPECT_TRUE(a.Intersect(apart).Empty());
}

TEST(RectTest, ContainsAndArea) {
  Rect r{1, 1, 3, 2};
  EXPECT_TRUE(r.Contains(1, 1));
  EXPECT_TRUE(r.Contains(3, 2));
  EXPECT_FALSE(r.Contains(4, 1));
  EXPECT_EQ(r.Area(), 6);
  EXPECT_EQ(Rect{}.Area(), 0);
}

TEST(RectTest, InflatedClampsToEmpty) {
  Rect r{5, 5, 4, 4};
  EXPECT_EQ(r.Inflated(1), (Rect{4, 4, 6, 6}));
  EXPECT_TRUE(r.Inflated(-3).Empty());
}

TEST(RectTest, RectIou) {
  EXPECT_DOUBLE_EQ(RectIou({0, 0, 2, 2}, {0, 0, 2, 2}), 1.0);
  EXPECT_DOUBLE_EQ(RectIou({0, 0, 2, 2}, {2, 2, 2, 2}), 0.0);
  EXPECT_NEAR(RectIou({0, 0, 4, 4}, {2, 0, 4, 4}), 8.0 / 24.0, 1e-12);
}

// Property sweep: bitmap identities hold for a range of random masks.
class BitmapPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BitmapPropertyTest, DeMorganAndIouBounds) {
  const int seed = GetParam();
  Bitmap a(9, 7), b(9, 7);
  std::uint64_t s = static_cast<std::uint64_t>(seed) * 2654435761u + 1;
  auto next = [&s]() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  for (auto& v : a.pixels()) v = next() & 1;
  for (auto& v : b.pixels()) v = next() & 1;

  // De Morgan: ~(a | b) == ~a & ~b.
  EXPECT_EQ(Not(Or(a, b)), And(Not(a), Not(b)));
  // a & b subset of a | b.
  EXPECT_EQ(CountSet(AndNot(And(a, b), Or(a, b))), 0u);
  // IoU symmetric and within [0, 1].
  const double iou = Iou(a, b);
  EXPECT_DOUBLE_EQ(iou, Iou(b, a));
  EXPECT_GE(iou, 0.0);
  EXPECT_LE(iou, 1.0);
  // |a & b| + |a | b| == |a| + |b|.
  EXPECT_EQ(CountSet(And(a, b)) + CountSet(Or(a, b)),
            CountSet(a) + CountSet(b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitmapPropertyTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace bb::imaging
