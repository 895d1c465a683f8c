#include "imaging/connected_components.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "imaging/draw.h"
#include "synth/rng.h"

namespace bb::imaging {
namespace {

TEST(ConnectedComponentsTest, EmptyMaskHasNoComponents) {
  const Labeling l = LabelComponents(Bitmap(5, 5));
  EXPECT_TRUE(l.components.empty());
}

TEST(ConnectedComponentsTest, SinglePixel) {
  Bitmap m(5, 5);
  m(2, 3) = kMaskSet;
  const Labeling l = LabelComponents(m);
  ASSERT_EQ(l.components.size(), 1u);
  EXPECT_EQ(l.components[0].area, 1u);
  EXPECT_EQ(l.components[0].bbox, (Rect{2, 3, 1, 1}));
  EXPECT_DOUBLE_EQ(l.components[0].centroid.x, 2.0);
  EXPECT_DOUBLE_EQ(l.components[0].centroid.y, 3.0);
}

TEST(ConnectedComponentsTest, DiagonalPixelsAreSeparate) {
  Bitmap m(4, 4);
  m(0, 0) = kMaskSet;
  m(1, 1) = kMaskSet;  // 4-connectivity: not connected
  EXPECT_EQ(LabelComponents(m).components.size(), 2u);
}

TEST(ConnectedComponentsTest, TwoBlobsGetDistinctLabels) {
  Bitmap m(12, 6);
  FillRect(m, {0, 0, 3, 3});
  FillRect(m, {8, 2, 3, 3});
  const Labeling l = LabelComponents(m);
  ASSERT_EQ(l.components.size(), 2u);
  EXPECT_NE(l.labels(1, 1), l.labels(9, 3));
  EXPECT_EQ(l.labels(5, 1), 0);
  EXPECT_EQ(l.components[0].area, 9u);
  EXPECT_EQ(l.components[1].area, 9u);
}

TEST(ConnectedComponentsTest, LShapeIsOneComponent) {
  Bitmap m(6, 6);
  FillRect(m, {0, 0, 1, 5});
  FillRect(m, {0, 4, 5, 1});
  const Labeling l = LabelComponents(m);
  ASSERT_EQ(l.components.size(), 1u);
  EXPECT_EQ(l.components[0].area, 9u);
  EXPECT_EQ(l.components[0].bbox, (Rect{0, 0, 5, 5}));
}

TEST(ConnectedComponentsTest, RemoveSmallComponents) {
  Bitmap m(12, 12);
  FillRect(m, {0, 0, 4, 4});   // area 16
  m(10, 10) = kMaskSet;        // area 1
  const Bitmap cleaned = RemoveSmallComponents(m, 4);
  EXPECT_TRUE(cleaned(1, 1));
  EXPECT_FALSE(cleaned(10, 10));
  EXPECT_EQ(CountSet(cleaned), 16u);
}

TEST(ConnectedComponentsTest, RemoveSmallKeepsExactThreshold) {
  Bitmap m(8, 8);
  FillRect(m, {0, 0, 2, 2});  // area 4
  EXPECT_EQ(CountSet(RemoveSmallComponents(m, 4)), 4u);
  EXPECT_EQ(CountSet(RemoveSmallComponents(m, 5)), 0u);
}

TEST(ConnectedComponentsTest, LargestComponent) {
  Bitmap m(16, 8);
  FillRect(m, {0, 0, 5, 5});
  FillRect(m, {10, 0, 3, 3});
  const Bitmap largest = LargestComponent(m);
  EXPECT_TRUE(largest(2, 2));
  EXPECT_FALSE(largest(11, 1));
  EXPECT_EQ(CountSet(largest), 25u);
}

TEST(ConnectedComponentsTest, LargestOfEmptyIsEmpty) {
  EXPECT_EQ(CountSet(LargestComponent(Bitmap(4, 4))), 0u);
}

// The stack flood fill LabelComponents used before the run-length
// labeler: components numbered in the raster order of their first pixel,
// centroids from per-pixel sums.
Labeling FloodFillReference(const Bitmap& mask, Connectivity connectivity) {
  const int w = mask.width(), h = mask.height();
  Labeling out;
  out.labels = ImageT<int>(w, h, 0);
  if (w == 0 || h == 0) return out;
  std::vector<Point> stack;
  int next_label = 0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (!mask(x, y) || out.labels(x, y) != 0) continue;
      ++next_label;
      Component comp;
      comp.label = next_label;
      comp.bbox = {x, y, 1, 1};
      double sum_x = 0.0, sum_y = 0.0;
      stack.push_back({x, y});
      out.labels(x, y) = next_label;
      while (!stack.empty()) {
        const Point p = stack.back();
        stack.pop_back();
        ++comp.area;
        sum_x += p.x;
        sum_y += p.y;
        comp.bbox = comp.bbox.Union({p.x, p.y, 1, 1});
        constexpr int kDx[] = {1, -1, 0, 0, 1, 1, -1, -1};
        constexpr int kDy[] = {0, 0, 1, -1, 1, -1, 1, -1};
        const int neighbours = connectivity == Connectivity::kEight ? 8 : 4;
        for (int k = 0; k < neighbours; ++k) {
          const int nx = p.x + kDx[k], ny = p.y + kDy[k];
          if (nx < 0 || ny < 0 || nx >= w || ny >= h) continue;
          if (!mask(nx, ny) || out.labels(nx, ny) != 0) continue;
          out.labels(nx, ny) = next_label;
          stack.push_back({nx, ny});
        }
      }
      comp.centroid = {sum_x / static_cast<double>(comp.area),
                       sum_y / static_cast<double>(comp.area)};
      out.components.push_back(comp);
    }
  }
  return out;
}

void ExpectSameLabeling(const Labeling& got, const Labeling& want) {
  ASSERT_EQ(got.labels.width(), want.labels.width());
  ASSERT_EQ(got.labels.height(), want.labels.height());
  EXPECT_TRUE(std::equal(got.labels.pixels().begin(),
                         got.labels.pixels().end(),
                         want.labels.pixels().begin()));
  ASSERT_EQ(got.components.size(), want.components.size());
  for (std::size_t i = 0; i < want.components.size(); ++i) {
    const Component& g = got.components[i];
    const Component& r = want.components[i];
    EXPECT_EQ(g.label, r.label) << i;
    EXPECT_EQ(g.area, r.area) << i;
    EXPECT_EQ(g.bbox, r.bbox) << i;
    // Equal as doubles: both centroids divide exact integer sums.
    EXPECT_EQ(g.centroid.x, r.centroid.x) << i;
    EXPECT_EQ(g.centroid.y, r.centroid.y) << i;
  }
}

// Random masks of odd and degenerate shapes at sparse to dense fill, plus
// filled discs and rings (U-shapes and holes merge runs late).
TEST(LabelComponentsExactnessTest, MatchesFloodFillReference) {
  synth::Rng rng(2024);
  const int shapes[][2] = {{1, 1},  {1, 23}, {23, 1}, {7, 5},
                           {31, 17}, {64, 48}, {97, 61}};
  int masks = 0;
  for (const auto& shape : shapes) {
    for (const double fill : {0.05, 0.3, 0.5, 0.62, 0.9}) {
      for (int rep = 0; rep < 6; ++rep) {
        Bitmap mask(shape[0], shape[1]);
        for (auto& px : mask.pixels()) {
          px = rng.Chance(fill) ? kMaskSet : kMaskClear;
        }
        if (rep == 5 && shape[0] > 8 && shape[1] > 8) {
          FillCircle(mask, shape[0] / 2, shape[1] / 2,
                     std::min(shape[0], shape[1]) / 3);
          FillCircle(mask, shape[0] / 2, shape[1] / 2,
                     std::min(shape[0], shape[1]) / 6, kMaskClear);
        }
        for (const Connectivity c :
             {Connectivity::kFour, Connectivity::kEight}) {
          ExpectSameLabeling(LabelComponents(mask, c),
                             FloodFillReference(mask, c));
        }
        ++masks;
      }
    }
  }
  EXPECT_EQ(masks, 210);
  for (const Connectivity c : {Connectivity::kFour, Connectivity::kEight}) {
    ExpectSameLabeling(LabelComponents(Bitmap(0, 0), c),
                       FloodFillReference(Bitmap(0, 0), c));
    ExpectSameLabeling(LabelComponents(Bitmap(9, 4, kMaskSet), c),
                       FloodFillReference(Bitmap(9, 4, kMaskSet), c));
  }
}

// The label plane of a flood-fill labeling, filtered pixel by pixel: the
// pickers that paint runs must give the same masks.
Bitmap KeepLabels(const Labeling& labeling, const std::vector<bool>& keep) {
  Bitmap out(labeling.labels.width(), labeling.labels.height());
  for (int y = 0; y < out.height(); ++y) {
    for (int x = 0; x < out.width(); ++x) {
      const int label = labeling.labels(x, y);
      if (label > 0 && keep[static_cast<std::size_t>(label)]) {
        out(x, y) = kMaskSet;
      }
    }
  }
  return out;
}

TEST(ComponentPickExactnessTest, RunPickersMatchTheLabelPlane) {
  synth::Rng rng(77);
  const int shapes[][2] = {{0, 0}, {1, 1}, {1, 23}, {23, 1}, {31, 17},
                           {97, 61}};
  for (const auto& shape : shapes) {
    for (const double fill : {0.05, 0.5, 0.62, 0.9}) {
      Bitmap mask(shape[0], shape[1]), seed(shape[0], shape[1]);
      for (auto& px : mask.pixels()) {
        px = rng.Chance(fill) ? kMaskSet : kMaskClear;
      }
      for (auto& px : seed.pixels()) {
        px = rng.Chance(0.02) ? 0xFF : kMaskClear;
      }
      const Labeling labeling = FloodFillReference(mask, Connectivity::kFour);
      const std::size_t slots = labeling.components.size() + 1;
      const std::string what = std::to_string(shape[0]) + "x" +
                               std::to_string(shape[1]) +
                               " fill=" + std::to_string(fill);

      std::vector<bool> overlapping(slots, false);
      for (int y = 0; y < mask.height(); ++y) {
        for (int x = 0; x < mask.width(); ++x) {
          if (seed(x, y) && labeling.labels(x, y) > 0) {
            overlapping[static_cast<std::size_t>(labeling.labels(x, y))] =
                true;
          }
        }
      }
      Bitmap out(2, 2, kMaskSet);
      ComponentsOverlapping(mask, seed, &out);
      EXPECT_EQ(out, KeepLabels(labeling, overlapping)) << what;

      for (const std::size_t min_area : {std::size_t{0}, std::size_t{5},
                                         std::size_t{60}}) {
        std::vector<bool> largest(slots, false), big(slots, false);
        std::size_t best_area = 0;
        int best = 0;
        for (const Component& c : labeling.components) {
          big[static_cast<std::size_t>(c.label)] = c.area >= min_area;
          if (c.area > best_area) {
            best_area = c.area;
            best = c.label;
          }
        }
        if (best > 0 && best_area >= min_area) {
          largest[static_cast<std::size_t>(best)] = true;
        }
        LargestComponent(mask, min_area, &out);
        EXPECT_EQ(out, KeepLabels(labeling, largest))
            << what << " min_area=" << min_area;
        EXPECT_EQ(LargestComponent(mask, min_area), out);
        EXPECT_EQ(RemoveSmallComponents(mask, min_area),
                  KeepLabels(labeling, big))
            << what << " min_area=" << min_area;
      }
    }
  }
}

}  // namespace
}  // namespace bb::imaging
