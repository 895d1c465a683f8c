#include "core/caller_masking.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "imaging/color.h"
#include "imaging/kernels/kernels.h"
#include "imaging/morphology.h"

namespace bb::core {

using imaging::Bitmap;

CallerColorCounts::CallerColorCounts()
    : counts(imaging::kColorBucketCount, 0) {}

void CallerColorCounts::Add(const imaging::Image& frame,
                            const imaging::Bitmap& mask) {
  total += imaging::kernels::ColorBucketHistogram(frame.pixels(),
                                                  mask.pixels(), counts);
}

void CallerColorCounts::Add(const CallerColorCounts& other) {
  std::transform(counts.begin(), counts.end(), other.counts.begin(),
                 counts.begin(), std::plus<>());
  total += other.total;
}

CallerMasker::CallerMasker(const CallerMaskingOptions& opts) : opts_(opts) {}

void CallerMasker::BeginPrepare() {
  colors_ = CallerColorCounts();
  stats_ready_ = false;
}

void CallerMasker::Fold(const CallerColorCounts& shard) { colors_.Add(shard); }

void CallerMasker::EndPrepare() { stats_ready_ = true; }

Bitmap CallerMasker::Refine(const imaging::Image& frame,
                            const imaging::Bitmap& raw) const {
  if (!stats_ready_) throw std::logic_error("CallerMasker: not prepared");
  Bitmap vcm = raw;
  if (colors_.total == 0 || opts_.rare_color_frequency <= 0.0) return vcm;

  // Only the uncertain boundary band is eligible for flipping.
  const Bitmap core = imaging::ErodeDisc(raw, opts_.protect_core_px);

  const double threshold =
      opts_.rare_color_frequency * static_cast<double>(colors_.total);
  for (int y = 0; y < vcm.height(); ++y) {
    for (int x = 0; x < vcm.width(); ++x) {
      if (!vcm(x, y) || core(x, y)) continue;
      const auto count = colors_.counts[static_cast<std::size_t>(
          imaging::ColorBucket(frame(x, y)))];
      if (static_cast<double>(count) < threshold) {
        vcm(x, y) = imaging::kMaskClear;
      }
    }
  }
  return vcm;
}

}  // namespace bb::core
