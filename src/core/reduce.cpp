#include "core/reduce.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "common/parallel.h"
#include "common/trace.h"
#include "imaging/image.h"

namespace bb::core {

namespace {

std::string RangeStr(int begin, int end) {
  return "[" + std::to_string(begin) + ", " + std::to_string(end) + ")";
}

}  // namespace

void FinalizeBackground(const LeakAccumulators& total, int width, int height,
                        double max_color_spread, int min_leak_count,
                        ReconstructionResult* result) {
  const std::size_t pixels =
      static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  result->coverage = imaging::Bitmap(width, height);
  result->leak_counts = imaging::ImageT<int>(width, height, 0);
  result->background = imaging::Image(width, height);
  auto pcov = result->coverage.pixels();
  auto pcnt = result->leak_counts.pixels();
  for (std::size_t k = 0; k < pixels; ++k) {
    pcnt[k] = total.counts[k];
    if (total.counts[k] > 0) pcov[k] = imaging::kMaskSet;
  }

  // Finalize each pixel independently (means + the paper's color-stability
  // filter); row-parallel, disjoint writes.
  auto pbg = result->background.pixels();
  const double max_var = max_color_spread * max_color_spread;
  common::ParallelFor(0, height, /*grain=*/16, [&](std::int64_t y) {
    for (std::size_t k = static_cast<std::size_t>(y) * width,
                     row_end = k + static_cast<std::size_t>(width);
         k < row_end; ++k) {
      if (pcnt[k] == 0) continue;
      if (pcnt[k] < min_leak_count) {
        pcov[k] = imaging::kMaskClear;
        pcnt[k] = 0;
        continue;
      }
      const double inv = 1.0 / pcnt[k];
      const double mr = total.sum_r[k] * inv, mg = total.sum_g[k] * inv,
                   mb = total.sum_b[k] * inv;
      if (max_color_spread > 0.0 && pcnt[k] > 1) {
        const double var = std::max({total.sum_r2[k] * inv - mr * mr,
                                     total.sum_g2[k] * inv - mg * mg,
                                     total.sum_b2[k] * inv - mb * mb});
        if (var > max_var) {
          // Unstable color across observations: caller boundary, not leaked
          // background (paper sec. V-D Color Analysis).
          pcov[k] = imaging::kMaskClear;
          pcnt[k] = 0;
          continue;
        }
      }
      pbg[k] = {static_cast<std::uint8_t>(mr + 0.5),
                static_cast<std::uint8_t>(mg + 0.5),
                static_cast<std::uint8_t>(mb + 0.5)};
    }
  });
}

Result<ReconstructionResult> ReducePartials(
    std::vector<PartialResult> partials, ReduceStats* stats) {
  const trace::ScopedTimer reduce_timer("shard.reduce");
  if (partials.empty()) {
    return Status(StatusCode::kInvalidArgument, "no partials to reduce");
  }

  // Normalize to frame-range order: the merge is exact and therefore
  // order-invariant, but reducing in range order makes the validation
  // messages deterministic no matter how the partials arrived.
  std::vector<std::size_t> order(partials.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (partials[a].range_begin != partials[b].range_begin) {
      return partials[a].range_begin < partials[b].range_begin;
    }
    return partials[a].range_end < partials[b].range_end;
  });

  const PartialResult& first = partials[order.front()];
  for (std::size_t i : order) {
    const PartialResult& p = partials[i];
    if (p.frames_done < p.range_end) {
      // A checkpoint's sums stop short of its range; merging it would
      // silently drop the frames it never reached.
      return Status(StatusCode::kFailedPrecondition,
                    "partial " + RangeStr(p.range_begin, p.range_end) +
                        " is an unfinished checkpoint: decomposed only up "
                        "to frame " +
                        std::to_string(p.frames_done));
    }
    if (!SameStream(p.info, first.info)) {
      return Status(StatusCode::kFailedPrecondition,
                    "partials disagree on the stream identity "
                    "(dimensions, frame count, or fps): partial " +
                        RangeStr(p.range_begin, p.range_end) +
                        " does not match partial " +
                        RangeStr(first.range_begin, first.range_end));
    }
    if (p.config_hash != first.config_hash) {
      return Status(StatusCode::kFailedPrecondition,
                    "partials disagree on the reconstruction config: "
                    "partial " +
                        RangeStr(p.range_begin, p.range_end) +
                        " was built with a different option set or VB "
                        "reference than partial " +
                        RangeStr(first.range_begin, first.range_end));
    }
    if (p.bad_budget != first.bad_budget ||
        p.min_leak_count != first.min_leak_count ||
        p.max_color_spread != first.max_color_spread) {
      return Status(StatusCode::kFailedPrecondition,
                    "partials disagree on the finalize parameters (error "
                    "budget, min_leak_count, or max_color_spread): "
                    "partial " +
                        RangeStr(p.range_begin, p.range_end) +
                        " does not match partial " +
                        RangeStr(first.range_begin, first.range_end));
    }
  }

  // Coverage: ranges must tile [0, frames) with no overlap and no gap.
  const int frames = first.info.frame_count;
  int cursor = 0;
  for (std::size_t i : order) {
    const PartialResult& p = partials[i];
    if (p.range_begin < cursor) {
      return Status(StatusCode::kFailedPrecondition,
                    "overlapping shard ranges: partial " +
                        RangeStr(p.range_begin, p.range_end) +
                        " overlaps frames already covered up to " +
                        std::to_string(cursor));
    }
    if (p.range_begin > cursor) {
      return Status(StatusCode::kAborted,
                    "incomplete shard coverage: missing frame range " +
                        RangeStr(cursor, p.range_begin));
    }
    cursor = p.range_end;
  }
  if (cursor < frames) {
    return Status(StatusCode::kAborted,
                  "incomplete shard coverage: missing frame range " +
                      RangeStr(cursor, frames));
  }

  // Quarantine union: a frame quarantined by any shard is excluded from
  // the merged run (quarantine stickiness survives the shard boundary).
  std::vector<std::uint8_t> quarantine(static_cast<std::size_t>(frames), 0);
  std::uint64_t bad_events = 0;
  for (const PartialResult& p : partials) {
    for (int q : p.quarantined) {
      quarantine[static_cast<std::size_t>(q)] = 1;
    }
    bad_events += p.bad_frame_events;
  }
  const int quarantined = static_cast<int>(
      std::count(quarantine.begin(), quarantine.end(), std::uint8_t{1}));
  if (first.bad_budget >= 0 && quarantined > first.bad_budget) {
    return Status(StatusCode::kAborted,
                  "bad-frame budget exceeded after merge: " +
                      std::to_string(quarantined) + " of " +
                      std::to_string(frames) +
                      " frames quarantined across all partials (budget " +
                      std::to_string(first.bad_budget) + ")");
  }

  // Exact accumulator merge in range order (any order gives the same bits;
  // see LeakAccumulators) + per-frame fraction splice.
  const std::size_t pixels = static_cast<std::size_t>(first.info.width) *
                             static_cast<std::size_t>(first.info.height);
  LeakAccumulators total;
  total.Zero(pixels);
  ReconstructionResult result;
  result.per_frame_leak_fraction.assign(static_cast<std::size_t>(frames),
                                        0.0);
  for (std::size_t i : order) {
    const PartialResult& p = partials[i];
    total.Add(p.acc);
    std::copy(p.per_frame_leak_fraction.begin(),
              p.per_frame_leak_fraction.end(),
              result.per_frame_leak_fraction.begin() + p.range_begin);
  }
  FinalizeBackground(total, first.info.width, first.info.height,
                     first.max_color_spread, first.min_leak_count, &result);

  if (trace::Enabled()) {
    trace::AddCounter("shard.partials_merged",
                      static_cast<std::uint64_t>(partials.size()));
    trace::AddCounter("shard.merged_quarantined",
                      static_cast<std::uint64_t>(quarantined));
  }
  if (stats != nullptr) {
    stats->partials_merged = static_cast<int>(partials.size());
    stats->frames_covered = frames;
    stats->quarantined = quarantined;
    stats->bad_frame_events = bad_events;
  }
  return result;
}

}  // namespace bb::core
