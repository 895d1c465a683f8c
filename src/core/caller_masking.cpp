#include "core/caller_masking.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "imaging/color.h"
#include "imaging/histogram.h"
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
  if (colors_.total == 0 || opts_.rare_color_frequency <= 0.0) return raw;
  imaging::RequireSameShape(frame, raw, "CallerMasker::Refine");

  // Only the uncertain boundary band is eligible for flipping: a pixel
  // stays when it is in the core or its color is not rare, which is one
  // integer comparison against the smallest count that is not rare.
  const Bitmap core = imaging::ErodeDisc(raw, opts_.protect_core_px);
  const double threshold =
      opts_.rare_color_frequency * static_cast<double>(colors_.total);
  const std::uint64_t common_min = imaging::ColorFrequency::MinCount(
      colors_.total, [&](std::uint64_t count) {
        return !(static_cast<double>(count) < threshold);
      });
  Bitmap vcm(raw.width(), raw.height());
  imaging::kernels::ColorCountSelect(frame.pixels(), colors_.counts,
                                     common_min, raw.pixels(), core.pixels(),
                                     vcm.pixels());
  return vcm;
}

}  // namespace bb::core
