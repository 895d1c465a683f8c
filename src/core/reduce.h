// Reducer for sharded map-reduce reconstruction (DESIGN.md section 14).
//
// ReducePartials folds K sealed BBPR partials (core/partial.h) into the
// exact ReconstructionResult a single uninterrupted run over the whole
// stream would produce. Before touching any accumulator it validates the
// merge:
//   * every partial must be finished - a checkpoint (frames_done below its
//     range end) is kFailedPrecondition naming its range and the frame it
//     reached;
//   * every partial must carry the same stream identity, config hash, and
//     finalize parameters (error budget, min_leak_count, max_color_spread)
//     - a mismatch is kFailedPrecondition naming the offending partial;
//   * the frame ranges must be disjoint (kFailedPrecondition naming the
//     overlapping ranges) and must cover [0, frames) completely (kAborted
//     naming the missing frame range);
//   * quarantines are unioned across partials - a frame quarantined by one
//     shard stays quarantined in the merged result - and the merged union
//     is re-checked against the shared error budget (kAborted when
//     exceeded, exactly as the single-process run would have failed).
// The accumulator merge is exact (integer-valued doubles), so the arrival
// order of partials is immaterial: the reducer always reduces in frame-
// range order, and any permutation of the inputs produces the same bits.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/partial.h"
#include "core/reconstruction.h"
#include "video/frame_source.h"

namespace bb::core {

// Observability for a merge (mirrored into bb.trace.v1 shard.* counters
// when tracing is enabled).
struct ReduceStats {
  int partials_merged = 0;
  int frames_covered = 0;
  int quarantined = 0;  // size of the merged quarantine union
  std::uint64_t bad_frame_events = 0;
};

// Shared pixel finalization (means + the paper's color-stability filter +
// the min-leak-count filter, sec. V-D): one code path used by both
// StreamingReconstructor::Finalize and ReducePartials, so a merged run is
// bit-identical to a single process by construction. Overwrites
// result->background / coverage / leak_counts.
void FinalizeBackground(const LeakAccumulators& total, int width, int height,
                        double max_color_spread, int min_leak_count,
                        ReconstructionResult* result);

// Merges `partials` (any order) into the single-process result. On
// success `stats`, when non-null, receives the merge accounting.
Result<ReconstructionResult> ReducePartials(
    std::vector<PartialResult> partials, ReduceStats* stats = nullptr);

}  // namespace bb::core
