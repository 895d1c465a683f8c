#include "imaging/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "imaging/kernels/kernels.h"

namespace bb::imaging {

void ColorFrequency::Clear() {
  std::fill(counts_.begin(), counts_.end(), std::uint64_t{0});
  total_ = 0;
}

void ColorFrequency::AddMasked(const Image& img, const Bitmap& mask) {
  RequireSameShape(img, mask, "ColorFrequency::AddMasked");
  total_ += kernels::ColorBucketHistogram(img.pixels(), mask.pixels(),
                                          counts_);
}

std::vector<double> HueHistogram(const Image& img, const Bitmap& mask,
                                 const HueHistogramOptions& opts) {
  RequireSameShape(img, mask, "HueHistogram");
  std::vector<std::uint64_t> bins(
      static_cast<std::size_t>(std::max(1, opts.bins)), 0);
  const std::uint64_t total = kernels::HueHistogramAccum(
      img.pixels(), mask.pixels(), opts.min_saturation, opts.min_value, bins);
  std::vector<double> hist(bins.size(), 0.0);
  if (total > 0) {
    for (std::size_t i = 0; i < bins.size(); ++i) {
      hist[i] = static_cast<double>(bins[i]) / static_cast<double>(total);
    }
  }
  return hist;
}

double HistogramIntersection(const std::vector<double>& a,
                             const std::vector<double>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += std::min(a[i], b[i]);
  return sum;
}

Rgb8 MeanColor(const Image& img, const Bitmap& mask) {
  RequireSameShape(img, mask, "MeanColor");
  std::uint64_t r = 0, g = 0, b = 0;
  const std::uint64_t n =
      kernels::MaskedSumRgb(img.pixels(), mask.pixels(), &r, &g, &b);
  if (n == 0) return {};
  const double dn = static_cast<double>(n);
  return {static_cast<std::uint8_t>(static_cast<double>(r) / dn + 0.5),
          static_cast<std::uint8_t>(static_cast<double>(g) / dn + 0.5),
          static_cast<std::uint8_t>(static_cast<double>(b) / dn + 0.5)};
}

}  // namespace bb::imaging
