// Color statistics.
//
// The video-caller mask refinement (paper sec. V-D) reclassifies pixels
// whose color is statistically rare within the caller region; the location
// attack compares hue histograms. Both build on these counters.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "imaging/color.h"
#include "imaging/image.h"

namespace bb::imaging {

// Counts of quantized colors (kColorBucketCount buckets, 4 bits/channel).
class ColorFrequency {
 public:
  ColorFrequency() : counts_(kColorBucketCount, 0) {}

  void Add(Rgb8 c) {
    ++counts_[static_cast<std::size_t>(ColorBucket(c))];
    ++total_;
  }

  // Adds every pixel of `img` where `mask` is set.
  void AddMasked(const Image& img, const Bitmap& mask);

  // Back to no pixels counted, keeping the storage.
  void Clear();

  std::uint64_t Count(Rgb8 c) const {
    return counts_[static_cast<std::size_t>(ColorBucket(c))];
  }
  std::uint64_t total() const { return total_; }
  // Every bucket's count, indexed by ColorBucket.
  std::span<const std::uint64_t> counts() const { return counts_; }

  // Relative frequency of the color's bucket in [0, 1]; 0 when empty.
  double Frequency(Rgb8 c) const { return FrequencyOfCount(Count(c)); }
  // The frequency of a bucket holding `count` pixels.
  double FrequencyOfCount(std::uint64_t count) const {
    if (total_ == 0) return 0.0;
    return static_cast<double>(count) / static_cast<double>(total_);
  }

  // Exact count thresholds (DESIGN.md section 15): the smallest count c in
  // [0, total] for which `reached(c)` holds, or total + 1 when none does.
  // `reached` must stay true once it turns true as c grows, as a test of a
  // quantity that does not decrease with the count does (FrequencyOfCount
  // divides by a fixed total). No bucket holds more than `total`, and for
  // such counts `reached(count)` is exactly `count >= MinCount(total,
  // reached)`: the per-pixel test becomes one integer comparison, with the
  // threshold taken from the same expression at O(log total) counts.
  template <typename Reached>
  static std::uint64_t MinCount(std::uint64_t total, Reached reached) {
    std::uint64_t lo = 0, hi = total + 1;  // the answer lies in [lo, hi]
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (reached(mid)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

// Hue histogram over `bins` equal slices of [0, 360); pixels with
// saturation or value below the thresholds are skipped (hue is meaningless
// for near-gray pixels).
struct HueHistogramOptions {
  int bins = 36;
  float min_saturation = 0.12f;
  float min_value = 0.08f;
};

std::vector<double> HueHistogram(const Image& img, const Bitmap& mask,
                                 const HueHistogramOptions& opts = {});

// Histogram intersection similarity in [0, 1] for two normalized
// histograms of the same size.
double HistogramIntersection(const std::vector<double>& a,
                             const std::vector<double>& b);

// Mean color of the masked region (black when the mask is empty).
Rgb8 MeanColor(const Image& img, const Bitmap& mask);

}  // namespace bb::imaging
