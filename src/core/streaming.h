// Streaming reconstruction core (ROADMAP: O(window) memory end-to-end).
//
// StreamingReconstructor runs the full reconstruction framework of
// reconstruction.h over a video::FrameSource without ever materializing the
// call: frame state is bounded by a FrameWindow, mask/frame buffers recycle
// through a BufferPool, and the whole-call statistics (segmenter analysis,
// caller color model, leak accumulators) are incremental with O(pixels)
// state. The batch Reconstructor::Run is a thin wrapper over this class
// (window = call length), and the two are bit-identical at any thread
// count: per-shard leak accumulators persist across window flushes and sum
// integer-valued doubles, so the reduction is exact regardless of how the
// frames were windowed or sharded.
//
// Pass protocol (TotalPasses() sequential pulls over a rewindable source):
//   passes [0, A)  - segmenter analysis passes (A = AnalysisPasses())
//   pass A         - windowed caller pass: each window flush segments its
//                    frames in parallel, counts their colors per thread
//                    shard (integer histograms, folded into the caller
//                    color model in shard order) and run-length encodes
//                    the raw masks of the decomposition range into a
//                    MaskStore (core/mask_store.h)
//   pass A+1       - windowed decomposition + leak accumulation; the VCM
//                    refines the stored mask, so Segment() runs exactly
//                    once per frame and never here
// Run() drives all passes; the Begin/BeginPass/PushFrame/EndPass/Finalize
// surface is public for callers that push frames as they arrive. Both
// windowed passes hold at most window_frames frames; the mask store keeps
// at most kMaskStoreResidentBytes in memory and spills the rest to an
// unlinked temp file, so memory stays O(window) at any call length.
// Finalize()/FinalizePartial() release the window, buffer pool, mask store
// and accumulators before returning.
//
// Shard mode (DESIGN.md section 14): with shard_count > 0 the worker runs
// the analysis and caller passes over the whole stream (identical global
// statistics on every worker) but stores masks for and decomposes only its
// frame slice [frames*i/N, frames*(i+1)/N), fast-forwarding to the slice
// start via video::FrameSource::Seek when the source supports it.
// RunPartial() then emits a sealed mergeable partial (core/partial.h)
// instead of finalizing; core/reduce.h folds the K partials into output
// bit-identical to a single-process run at any shard count, thread count,
// or window size.
//
// Fault tolerance (DESIGN.md section 11):
//   * A frame reported bad (PushBadFrame, or a kBad pull inside Run) is
//     *quarantined*: excluded from every pass - analysis, caller pass, and
//     decomposition - so the final output is bit-identical to a clean run
//     over the surviving frames, at any thread count or window size. The
//     quarantine is sticky across passes; schedule-driven injected faults
//     fire on every pass by construction, so a frame is consistently in or
//     out of the whole computation.
//   * An error budget (max_bad_frames / max_bad_fraction) bounds how much
//     degradation is acceptable; one quarantine past the budget fails the
//     run with a structured kAborted status.
//   * With checkpoint_path set, decomposition progress is sealed after
//     every window flush as a BBPR partial short of its range end
//     (core/partial.h; write-temp-then-rename) and Begin() resumes from a
//     valid one, fast-forwarding the decomposition pass with bit-identical
//     final output. A hostile or stale checkpoint is discarded with a
//     structured reason (checkpoint_status()) and the run starts fresh.
//     Shard workers checkpoint within their own slice; a checkpoint written
//     for a different shard range, or with a different ConfigHash(recon,
//     config_salt), is refused like a different stream.
//   * With no faults, budgets, or checkpoint configured, all of this is a
//     few integer compares per frame - outputs are byte-identical to the
//     pre-fault-tolerance pipeline.
//   * A mask-store spill that cannot be written or read back fails
//     Run()/RunPartial() with the store's status (kIoError or kDataLoss);
//     a frame is never segmented a second time to recover. Callers driving
//     the push protocol get a std::runtime_error carrying the same text.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "core/caller_masking.h"
#include "core/mask_store.h"
#include "core/partial.h"
#include "core/reconstruction.h"
#include "imaging/image.h"
#include "video/frame_source.h"

namespace bb::core {

struct StreamingOptions {
  // Capacity of the reconstruction window in frames (>= 1) - the only
  // multi-frame frame state. Peak frame-buffer residency is bounded by this,
  // never by the call length.
  int window_frames = 64;
  ReconstructionOptions recon;

  // Error budget: the run fails (kAborted) once more than this many frames
  // are quarantined. max_bad_frames is absolute (-1 = unlimited);
  // max_bad_fraction is a fraction of the stream's frame count (< 0 =
  // unlimited). When both are set the tighter one wins.
  int max_bad_frames = -1;
  double max_bad_fraction = -1.0;

  // When non-empty, decomposition progress is checkpointed here after every
  // window flush and Begin() resumes from the file when it matches the
  // stream. Incompatible with recon.keep_frame_masks (per-frame masks are
  // not serialized).
  std::string checkpoint_path;

  // Shard mode: with shard_count > 0 this worker decomposes only shard
  // shard_index (0-based) of shard_count equal slices and emits a partial
  // via RunPartial()/FinalizePartial() instead of a finalized result.
  // Incompatible with recon.keep_frame_masks. shard_count = 0 disables.
  int shard_index = 0;
  int shard_count = 0;
  // Mixed into the config hash (core/partial.h ConfigHash) that partials
  // and checkpoints carry, so a reducer refuses partials, and a resume
  // refuses a checkpoint, built against a different VB reference; callers
  // fold the reference identity in here.
  std::uint64_t config_salt = 0;

  // Cooperative cancellation: when non-null and the pointee becomes true
  // (e.g. from a SIGTERM handler), Run()/RunPartial() stop between frame
  // pulls and return kAborted. On the decomposition pass with a checkpoint
  // configured, the in-flight window is flushed and a checkpoint sealed
  // first, so an interrupted run wastes at most the frame being decoded -
  // not the whole resident window - and a rerun resumes bit-identically.
  // Polled with one relaxed load per pull; never written by this class.
  const std::atomic<bool>* stop = nullptr;
};

// Observability counters for the streaming run (also mirrored into
// bb.trace.v1 as stream.*, fault.*, recover.*, and shard.* counters when
// tracing is enabled).
struct StreamingStats {
  int window_capacity = 0;
  // Peak window residency over both windowed passes.
  int peak_window_frames = 0;
  // Frames pushed into, and flushes of, the decomposition pass's window.
  std::uint64_t frames_pushed = 0;
  std::uint64_t window_flushes = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  // Raw masks the caller pass stored past the mask store's resident cap,
  // in its spill file.
  std::uint64_t masks_spilled = 0;

  // Degradation accounting.
  std::uint64_t bad_frame_events = 0;  // bad pushes/pulls across all passes
  int frames_quarantined = 0;          // unique frames excluded from the run
  // Checkpoint/resume accounting.
  bool resumed = false;
  int resume_frames_done = 0;  // decomposition cursor restored from the file
  std::uint64_t checkpoint_writes = 0;
  std::uint64_t checkpoint_write_failures = 0;
  // Shard accounting: the decomposition range of this run ([0, frames) for
  // a whole-stream run).
  int shard_range_begin = 0;
  int shard_range_end = 0;
};

class StreamingReconstructor {
 public:
  // `reference` and `segmenter` are borrowed and must outlive the instance.
  StreamingReconstructor(const VbReference& reference,
                         segmentation::PersonSegmenter& segmenter,
                         const StreamingOptions& opts = {});

  // Drives every pass over a rewindable source and finalizes. Bad pulls are
  // quarantined via PushBadFrame; the run fails only when the error budget
  // is exceeded (kAborted) or frame memory runs out (kResourceExhausted).
  // Refused (kFailedPrecondition) in shard mode - use RunPartial().
  Result<ReconstructionResult> Run(video::FrameSource& source);

  // Shard-mode counterpart of Run(): drives every pass and returns the
  // sealed mergeable partial for this worker's slice. Also valid outside
  // shard mode (the partial then covers the whole stream).
  Result<PartialResult> RunPartial(video::FrameSource& source);

  // Incremental protocol (Run() is a wrapper around these). For each pass
  // p in [0, TotalPasses()): BeginPass(p), push every frame in order -
  // PushFrame for a readable frame, PushBadFrame for an unreadable one -
  // then EndPass(p); then Finalize() (or FinalizePartial() in shard mode).
  void Begin(const video::StreamInfo& info);
  int TotalPasses() const;
  void BeginPass(int pass);
  // Copying push (the frame is copied into a pooled buffer on the windowed
  // passes) and zero-copy move push. Quarantined frames are skipped.
  void PushFrame(const imaging::Image& frame, int frame_index);
  void PushFrame(imaging::Image&& frame, int frame_index);
  // Records `frame_index` as unreadable (reason in `reason`) and takes this
  // pass's slot for it. First report quarantines the frame; the returned
  // status is non-OK (kAborted) once the quarantine exceeds the error
  // budget, and the run's outputs are then meaningless.
  Status PushBadFrame(int frame_index, const Status& reason);
  // Declares that frames [0, frame_index) will not be pushed on the
  // current pass because the decomposition range starts later - either a
  // resumed checkpoint already covers them or they belong to another
  // shard's slice. This is the seekable-source fast path
  // (video::FrameSource::Seek) that skips decoding the prefix entirely.
  // Only legal on the decomposition pass, before any frame of the pass was
  // pushed, and only up to the range start; the final output is
  // bit-identical to pushing (and skipping) the prefix frame by frame.
  void SkipDecomposedPrefix(int frame_index);
  void EndPass(int pass);
  ReconstructionResult Finalize();
  // Shard-mode finalization: seals this worker's accumulators, quarantine,
  // and per-range leak fractions into a mergeable partial (core/reduce.h
  // folds them). Like Finalize(), only legal after the last pass.
  PartialResult FinalizePartial();

  bool IsQuarantined(int frame_index) const;
  // Ascending frame indices currently quarantined.
  std::vector<int> QuarantinedFrames() const;

  const StreamingStats& stats() const { return stats_; }
  // Why the configured checkpoint was not resumed from (OK when it was, or
  // when none was configured / none existed yet). Valid after Begin().
  const Status& checkpoint_status() const { return checkpoint_status_; }

 private:
  // Per-thread-shard leak accumulator + reusable decomposition scratch.
  // The accumulator sums are exact (see LeakAccumulators), so the
  // shard-order reduction at Finalize() is bit-identical to a serial
  // frame-order loop no matter how many window flushes or shards
  // contributed.
  struct LeakShard {
    LeakAccumulators acc;
    FrameDecomposition scratch;
    imaging::Bitmap raw;  // decoded raw segmenter mask
  };

  void CheckOrder(int frame_index);
  bool Windowed() const { return current_pass_ >= analysis_passes_; }
  // True when `frame_index` is decomposed by this run: inside the worker's
  // slice and not already covered by a resumed checkpoint.
  bool InDecompositionRange(int frame_index) const {
    return frame_index >= decomp_begin_ && frame_index < shard_end_;
  }
  // True when the frame takes its in-order slot but must not contribute to
  // the current pass (quarantined, outside this worker's decomposition
  // range, or already covered by a checkpoint).
  bool SkipFrame(int frame_index) const;
  void PushWindowed(imaging::Image frame, int frame_index);
  // Flushes the resident window through SegmentWindow (caller pass) or
  // DecomposeWindow (decomposition pass) and recycles its buffers.
  void FlushWindow();
  void SegmentWindow();
  void DecomposeWindow();
  void DecomposeWindowFrame(int window_index, int frame_index,
                            std::span<const std::uint8_t> raw_runs,
                            LeakShard& shard);
  // This run's sealed state with frames below `frames_done` decomposed:
  // each flush's checkpoint, and FinalizePartial()'s result at shard_end_.
  PartialResult Snapshot(int frames_done);
  void SealCheckpoint(int frames_done);
  // Cooperative-stop exit path: on the decomposition pass with a checkpoint
  // configured, flushes (and thereby checkpoints) the resident window so
  // the interruption wastes no decomposed work, then reports kAborted with
  // the sealed progress in the message.
  Status AbortForStop();
  void TryResumeFromCheckpoint();
  // Serial shard-order reduction of resume base + thread shards (exact).
  LeakAccumulators ReduceShards();
  Status RunPasses(video::FrameSource& source);
  // Records the run's stats, then frees every per-run buffer (window, pool,
  // mask store, accumulators) - the result no longer needs them.
  void FinishRun();

  const VbReference& reference_;
  segmentation::PersonSegmenter& segmenter_;
  CallerMasker masker_;
  StreamingOptions opts_;

  video::StreamInfo info_;
  std::size_t pixels_ = 0;
  int analysis_passes_ = 0;
  int current_pass_ = -2;  // -2 before Begin, -1 after Begin
  int next_frame_ = 0;

  // Degradation state: quarantine bitmap + unique count + derived budget.
  std::vector<std::uint8_t> quarantine_;
  int quarantined_count_ = 0;
  int bad_budget_ = -1;  // max allowed quarantined frames; -1 = unlimited

  // Decomposition range of this run: [shard_begin_, shard_end_) is the
  // worker's slice ([0, frames) outside shard mode); decomp_begin_ starts
  // past frames a resumed checkpoint already covers.
  int shard_begin_ = 0;
  int shard_end_ = 0;
  int decomp_begin_ = 0;

  // Resume state: frames in [shard_begin_, resume_frames_) are already
  // decomposed and their combined accumulators live in resume_base_.
  int resume_frames_ = 0;
  std::optional<LeakAccumulators> resume_base_;
  Status checkpoint_status_;

  std::optional<video::FrameWindow> window_;
  // Original frame index of each resident window slot, oldest first. With
  // quarantined or resumed frames skipped, window slots are no longer
  // contiguous in stream indices; this carries the mapping into FlushWindow.
  std::vector<int> window_ids_;
  // Run-length-encoded raw mask of each window slot, between the segmenter
  // and the mask store (caller pass) or the store and the refinement
  // (decomposition pass). Reused across flushes.
  std::vector<std::vector<std::uint8_t>> slot_runs_;
  video::BufferPool pool_;
  MaskStore masks_;
  // Per-thread-shard color counts of the caller pass; they persist across
  // window flushes and fold into masker_ in shard order at EndPass.
  std::vector<CallerColorCounts> caller_shards_;
  std::vector<LeakShard> shards_;
  ReconstructionResult result_;
  StreamingStats stats_;

  std::optional<trace::ScopedTimer> caller_timer_;
  std::optional<trace::ScopedTimer> accumulate_timer_;
};

}  // namespace bb::core
