#include "imaging/histogram.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>

namespace bb::imaging {
namespace {

TEST(ColorFrequencyTest, CountsAndFrequencies) {
  ColorFrequency freq;
  EXPECT_DOUBLE_EQ(freq.Frequency({1, 2, 3}), 0.0);
  freq.Add({10, 20, 30});
  freq.Add({10, 20, 30});
  freq.Add({200, 10, 10});
  EXPECT_EQ(freq.total(), 3u);
  EXPECT_EQ(freq.Count({10, 20, 30}), 2u);
  EXPECT_NEAR(freq.Frequency({10, 20, 30}), 2.0 / 3.0, 1e-12);
  // Same bucket (4-bit quantization) counts together.
  EXPECT_EQ(freq.Count({11, 21, 31}), 2u);
}

TEST(ColorFrequencyTest, AddMaskedHonorsMask) {
  Image img(2, 1);
  img(0, 0) = {100, 0, 0};
  img(1, 0) = {0, 100, 0};
  Bitmap mask(2, 1);
  mask(1, 0) = kMaskSet;
  ColorFrequency freq;
  freq.AddMasked(img, mask);
  EXPECT_EQ(freq.total(), 1u);
  EXPECT_EQ(freq.Count({0, 100, 0}), 1u);
  EXPECT_EQ(freq.Count({100, 0, 0}), 0u);
}

TEST(ColorFrequencyTest, ClearForgetsEveryCount) {
  ColorFrequency freq;
  freq.Add({10, 20, 30});
  freq.Clear();
  EXPECT_EQ(freq.total(), 0u);
  EXPECT_EQ(freq.Count({10, 20, 30}), 0u);
  freq.Add({200, 10, 10});
  EXPECT_EQ(freq.total(), 1u);
  EXPECT_DOUBLE_EQ(freq.Frequency({200, 10, 10}), 1.0);
}

// MinCount turns a monotone per-count test into one integer comparison:
// for every count up to the total, reached(count) == (count >= MinCount).
// Checked on every count of several totals, for the segmenter's and the
// caller masker's tests at thresholds on, between and beyond the
// representable fractions, NaN included.
TEST(ColorFrequencyTest, MinCountMatchesTheDoubleTestAtEveryCount) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::uint64_t total : {0u, 1u, 3u, 7u, 250u, 1000u, 12345u}) {
    ColorFrequency freq;
    for (std::uint64_t i = 0; i < total; ++i) freq.Add({0, 0, 0});
    for (const double f : {-1.0, 0.0, 0.0025, 0.004, 0.03, 1.0 / 3.0, 0.5,
                           1.0, 1.1, nan}) {
      const auto reaches = [&](std::uint64_t n) {
        return freq.FrequencyOfCount(n) >= f;
      };
      const auto not_rare = [&](std::uint64_t n) {
        return !(freq.FrequencyOfCount(n) < f);
      };
      const double threshold = f * static_cast<double>(total);
      const auto not_below = [&](std::uint64_t n) {
        return !(static_cast<double>(n) < threshold);
      };
      const std::uint64_t min_reach = ColorFrequency::MinCount(total, reaches);
      const std::uint64_t min_common =
          ColorFrequency::MinCount(total, not_rare);
      const std::uint64_t min_not_below =
          ColorFrequency::MinCount(total, not_below);
      for (std::uint64_t n = 0; n <= total; ++n) {
        EXPECT_EQ(reaches(n), n >= min_reach) << total << " " << f << " " << n;
        EXPECT_EQ(not_rare(n), n >= min_common) << total << " " << f;
        EXPECT_EQ(not_below(n), n >= min_not_below) << total << " " << f;
      }
    }
  }
}

TEST(HueHistogramTest, PureHuesLandInExpectedBins) {
  Image img(3, 1);
  img(0, 0) = {255, 0, 0};  // hue 0
  img(1, 0) = {0, 255, 0};  // hue 120
  img(2, 0) = {0, 0, 255};  // hue 240
  Bitmap mask(3, 1, kMaskSet);
  const auto hist = HueHistogram(img, mask, {.bins = 36});
  EXPECT_NEAR(hist[0], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(hist[12], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(hist[24], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(std::accumulate(hist.begin(), hist.end(), 0.0), 1.0, 1e-9);
}

TEST(HueHistogramTest, GrayPixelsAreSkipped) {
  Image img(2, 1);
  img(0, 0) = {128, 128, 128};  // gray: no hue
  img(1, 0) = {255, 0, 0};
  Bitmap mask(2, 1, kMaskSet);
  const auto hist = HueHistogram(img, mask);
  EXPECT_NEAR(hist[0], 1.0, 1e-9);
}

TEST(HueHistogramTest, EmptyMaskYieldsZeroHistogram) {
  Image img(2, 2, Rgb8{255, 0, 0});
  Bitmap mask(2, 2);
  const auto hist = HueHistogram(img, mask);
  EXPECT_DOUBLE_EQ(std::accumulate(hist.begin(), hist.end(), 0.0), 0.0);
}

TEST(HistogramIntersectionTest, BoundsAndIdentity) {
  std::vector<double> a{0.5, 0.5, 0.0};
  std::vector<double> b{0.0, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(HistogramIntersection(a, a), 1.0);
  EXPECT_DOUBLE_EQ(HistogramIntersection(a, b), 0.5);
  std::vector<double> c{1.0, 0.0, 0.0};
  std::vector<double> d{0.0, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(HistogramIntersection(c, d), 0.0);
}

TEST(MeanColorTest, AveragesMaskedRegion) {
  Image img(2, 1);
  img(0, 0) = {100, 0, 0};
  img(1, 0) = {200, 0, 0};
  Bitmap mask(2, 1, kMaskSet);
  EXPECT_EQ(MeanColor(img, mask), (Rgb8{150, 0, 0}));
  Bitmap empty(2, 1);
  EXPECT_EQ(MeanColor(img, empty), Rgb8{});
}

}  // namespace
}  // namespace bb::imaging
