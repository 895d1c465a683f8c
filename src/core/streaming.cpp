#include "core/streaming.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common/parallel.h"
#include "core/reduce.h"
#include "imaging/kernels/kernels.h"

namespace bb::core {

using imaging::Bitmap;
using imaging::Image;

namespace {

// A mask-store failure inside the push protocol. Run()/RunPartial() turn it
// back into its status; push-protocol callers see a std::runtime_error.
class MaskStoreFailure : public std::runtime_error {
 public:
  explicit MaskStoreFailure(Status status)
      : std::runtime_error(status.ToString()), status_(std::move(status)) {}
  const Status& status() const { return status_; }

 private:
  Status status_;
};

void ThrowIfFailed(const Status& status) {
  if (!status.ok()) throw MaskStoreFailure(status);
}

std::string HexHash(std::uint64_t hash) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace

StreamingReconstructor::StreamingReconstructor(
    const VbReference& reference, segmentation::PersonSegmenter& segmenter,
    const StreamingOptions& opts)
    : reference_(reference),
      segmenter_(segmenter),
      masker_(opts.recon.caller),
      opts_(opts) {
  if (opts_.window_frames < 1) {
    throw std::invalid_argument("StreamingReconstructor: window_frames < 1");
  }
  if (!opts_.checkpoint_path.empty() && opts_.recon.keep_frame_masks) {
    throw std::invalid_argument(
        "StreamingReconstructor: checkpoint_path is incompatible with "
        "keep_frame_masks (per-frame masks are not serialized)");
  }
  if (opts_.shard_count < 0 ||
      (opts_.shard_count > 0 &&
       (opts_.shard_index < 0 || opts_.shard_index >= opts_.shard_count))) {
    throw std::invalid_argument(
        "StreamingReconstructor: shard_index must be in [0, shard_count)");
  }
  if (opts_.shard_count > 0 && opts_.recon.keep_frame_masks) {
    throw std::invalid_argument(
        "StreamingReconstructor: shard mode is incompatible with "
        "keep_frame_masks (per-frame masks are not mergeable)");
  }
}

int StreamingReconstructor::TotalPasses() const {
  return segmenter_.AnalysisPasses() + 2;
}

void StreamingReconstructor::Begin(const video::StreamInfo& info) {
  info_ = info;
  analysis_passes_ = segmenter_.AnalysisPasses();
  current_pass_ = -1;
  next_frame_ = 0;
  const int w = info.width, h = info.height;
  const int frames = info.frame_count;
  pixels_ = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);

  result_ = ReconstructionResult{};
  result_.coverage = Bitmap(w, h);
  result_.leak_counts = imaging::ImageT<int>(w, h, 0);
  result_.background = Image(w, h);
  result_.per_frame_leak_fraction.assign(static_cast<std::size_t>(frames),
                                         0.0);
  if (opts_.recon.keep_frame_masks) {
    result_.frame_masks.clear();
    result_.frame_masks.resize(static_cast<std::size_t>(frames));
  }

  window_.emplace(std::min(opts_.window_frames, std::max(1, frames)));
  window_ids_.clear();
  slot_runs_.assign(static_cast<std::size_t>(window_->capacity()), {});
  pool_ = video::BufferPool();
  shards_.clear();
  stats_ = StreamingStats{};
  stats_.window_capacity = window_->capacity();

  // Decomposition slice of this worker: the i-th of N equal ranges in
  // shard mode, the whole stream otherwise.
  shard_begin_ = 0;
  shard_end_ = frames;
  if (opts_.shard_count > 0) {
    shard_begin_ = static_cast<int>(static_cast<std::int64_t>(frames) *
                                    opts_.shard_index / opts_.shard_count);
    shard_end_ = static_cast<int>(static_cast<std::int64_t>(frames) *
                                  (opts_.shard_index + 1) /
                                  opts_.shard_count);
  }
  stats_.shard_range_begin = shard_begin_;
  stats_.shard_range_end = shard_end_;

  quarantine_.assign(static_cast<std::size_t>(frames), 0);
  quarantined_count_ = 0;
  bad_budget_ = opts_.max_bad_frames >= 0 ? opts_.max_bad_frames : -1;
  if (opts_.max_bad_fraction >= 0.0) {
    const int by_fraction = static_cast<int>(
        std::floor(opts_.max_bad_fraction * static_cast<double>(frames)));
    bad_budget_ =
        bad_budget_ < 0 ? by_fraction : std::min(bad_budget_, by_fraction);
  }

  resume_frames_ = 0;
  resume_base_.reset();
  TryResumeFromCheckpoint();
  decomp_begin_ = std::max(shard_begin_, resume_frames_);
}

void StreamingReconstructor::TryResumeFromCheckpoint() {
  checkpoint_status_ = OkStatus();
  if (opts_.checkpoint_path.empty()) return;
  Result<PartialResult> loaded = LoadPartial(opts_.checkpoint_path);
  if (!loaded.ok()) {
    // No file yet is the normal first-run case; anything else is a hostile
    // or stale checkpoint - keep the reason and start fresh.
    if (loaded.status().code() != StatusCode::kNotFound) {
      checkpoint_status_ = loaded.status();
    }
    return;
  }
  PartialResult st = std::move(*loaded);
  if (!SameStream(st.info, info_)) {
    checkpoint_status_ =
        Status(StatusCode::kFailedPrecondition,
               "checkpoint was written for a different stream "
               "(dimensions, frame count, or fps mismatch)")
            .WithContext("checkpoint " + opts_.checkpoint_path);
    return;
  }
  if (st.range_begin != shard_begin_ || st.range_end != shard_end_) {
    // Another shard's progress must never splice into this worker's
    // accumulators - the merge would silently double- or under-count.
    checkpoint_status_ =
        Status(StatusCode::kFailedPrecondition,
               "checkpoint was written for a different shard range [" +
                   std::to_string(st.range_begin) + ", " +
                   std::to_string(st.range_end) +
                   ") (this run decomposes [" +
                   std::to_string(shard_begin_) + ", " +
                   std::to_string(shard_end_) + "))")
            .WithContext("checkpoint " + opts_.checkpoint_path);
    return;
  }
  const std::uint64_t config_hash = ConfigHash(opts_.recon, opts_.config_salt);
  if (st.config_hash != config_hash) {
    // Accumulators built with another phi, tolerance or VB reference would
    // blend into this run's and match neither configuration.
    checkpoint_status_ =
        Status(StatusCode::kFailedPrecondition,
               "checkpoint was written with a different reconstruction "
               "configuration (config hash " +
                   HexHash(st.config_hash) + ", this run " +
                   HexHash(config_hash) + ")")
            .WithContext("checkpoint " + opts_.checkpoint_path);
    return;
  }
  for (int q : st.quarantined) {
    quarantine_[static_cast<std::size_t>(q)] = 1;
  }
  quarantined_count_ = static_cast<int>(st.quarantined.size());
  stats_.frames_quarantined = quarantined_count_;
  resume_frames_ = st.frames_done;
  resume_base_ = std::move(st.acc);
  std::copy(st.per_frame_leak_fraction.begin(),
            st.per_frame_leak_fraction.end(),
            result_.per_frame_leak_fraction.begin() + shard_begin_);
  stats_.resumed = true;
  stats_.resume_frames_done = resume_frames_;
  if (trace::Enabled()) {
    trace::AddCounter("recover.resumed_frames",
                      static_cast<std::uint64_t>(resume_frames_));
  }
}

void StreamingReconstructor::BeginPass(int pass) {
  if (pass != current_pass_ + 1 || pass >= TotalPasses()) {
    throw std::logic_error("StreamingReconstructor: passes must run in order");
  }
  current_pass_ = pass;
  next_frame_ = 0;
  if (pass < analysis_passes_) {
    segmenter_.BeginAnalysisPass(pass, info_);
  } else if (pass == analysis_passes_) {
    masker_.BeginPrepare();
    masks_.Clear();
    caller_shards_.clear();
    caller_timer_.emplace("reconstruct.caller_prepare");
  } else {
    accumulate_timer_.emplace("reconstruct.accumulate");
  }
}

void StreamingReconstructor::CheckOrder(int frame_index) {
  if (current_pass_ < 0) {
    throw std::logic_error("StreamingReconstructor: BeginPass not called");
  }
  if (frame_index != next_frame_ || frame_index >= info_.frame_count) {
    throw std::logic_error(
        "StreamingReconstructor: frames must be pushed in order");
  }
  ++next_frame_;
}

bool StreamingReconstructor::SkipFrame(int frame_index) const {
  if (quarantine_[static_cast<std::size_t>(frame_index)] != 0) return true;
  // Frames outside [decomp_begin_, shard_end_) contribute nothing to the
  // decomposition pass: below decomp_begin_ they are already decomposed
  // into resume_base_ or belong to an earlier shard, at or above
  // shard_end_ they belong to a later shard. The analysis and caller
  // passes still see them (their state is rebuilt fresh on every worker).
  return current_pass_ == analysis_passes_ + 1 &&
         !InDecompositionRange(frame_index);
}

void StreamingReconstructor::PushFrame(const Image& frame, int frame_index) {
  CheckOrder(frame_index);
  if (SkipFrame(frame_index)) return;
  if (Windowed()) {
    Image buffer = pool_.AcquireImage(info_.width, info_.height);
    const auto src = frame.pixels();
    const auto dst = buffer.pixels();
    std::copy(src.begin(), src.end(), dst.begin());
    PushWindowed(std::move(buffer), frame_index);
    return;
  }
  segmenter_.PushAnalysisFrame(current_pass_, frame, frame_index);
}

void StreamingReconstructor::PushFrame(Image&& frame, int frame_index) {
  if (Windowed()) {
    CheckOrder(frame_index);
    if (SkipFrame(frame_index)) {
      // Recycle the caller's buffer; the frame contributes nothing.
      pool_.Release(std::move(frame));
      return;
    }
    PushWindowed(std::move(frame), frame_index);
    return;
  }
  PushFrame(static_cast<const Image&>(frame), frame_index);
}

Status StreamingReconstructor::PushBadFrame(int frame_index,
                                            const Status& reason) {
  CheckOrder(frame_index);
  ++stats_.bad_frame_events;
  if (trace::Enabled()) trace::AddCounter("fault.bad_frame_events", 1);
  if (quarantine_[static_cast<std::size_t>(frame_index)] == 0) {
    quarantine_[static_cast<std::size_t>(frame_index)] = 1;
    ++quarantined_count_;
    stats_.frames_quarantined = quarantined_count_;
    if (trace::Enabled()) trace::AddCounter("recover.frames_quarantined", 1);
  }
  if (bad_budget_ >= 0 && quarantined_count_ > bad_budget_) {
    return Status(StatusCode::kAborted,
                  "bad-frame budget exceeded: " +
                      std::to_string(quarantined_count_) + " of " +
                      std::to_string(info_.frame_count) +
                      " frames quarantined (budget " +
                      std::to_string(bad_budget_) +
                      "); last error: " + reason.ToString());
  }
  return OkStatus();
}

void StreamingReconstructor::SkipDecomposedPrefix(int frame_index) {
  if (current_pass_ != analysis_passes_ + 1 || next_frame_ != 0 ||
      frame_index < 0 || frame_index > decomp_begin_ ||
      frame_index > info_.frame_count) {
    throw std::logic_error(
        "StreamingReconstructor: SkipDecomposedPrefix outside the skipped "
        "decomposition prefix");
  }
  next_frame_ = frame_index;
}

bool StreamingReconstructor::IsQuarantined(int frame_index) const {
  return frame_index >= 0 &&
         static_cast<std::size_t>(frame_index) < quarantine_.size() &&
         quarantine_[static_cast<std::size_t>(frame_index)] != 0;
}

std::vector<int> StreamingReconstructor::QuarantinedFrames() const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(quarantined_count_));
  for (std::size_t i = 0; i < quarantine_.size(); ++i) {
    if (quarantine_[i] != 0) out.push_back(static_cast<int>(i));
  }
  return out;
}

void StreamingReconstructor::PushWindowed(Image frame, int frame_index) {
  if (current_pass_ == analysis_passes_ + 1) ++stats_.frames_pushed;
  window_ids_.push_back(frame_index);
  pool_.Release(window_->Push(std::move(frame)));
  if (window_->size() == window_->capacity()) FlushWindow();
}

void StreamingReconstructor::FlushWindow() {
  if (window_->size() == 0) return;
  if (current_pass_ == analysis_passes_) {
    SegmentWindow();
  } else {
    DecomposeWindow();
  }
  window_->Clear(&pool_);
  window_ids_.clear();
}

void StreamingReconstructor::SegmentWindow() {
  const int count = window_->size();
  const int first = window_->first_index();
  const auto needed = static_cast<std::size_t>(common::NumShards(count));
  if (caller_shards_.size() < needed) caller_shards_.resize(needed);

  // Segment() dominates the caller pass, and this is the only place it
  // runs. Each thread shard counts colors into its own integer histogram
  // (exact in any order) and encodes its frames' masks into their own
  // slots; the masks then go into the store serially, in frame order.
  common::ParallelShards(
      0, count, /*grain=*/1,
      [&](int shard, std::int64_t shard_begin, std::int64_t shard_end) {
        CallerColorCounts& colors =
            caller_shards_[static_cast<std::size_t>(shard)];
        for (std::int64_t k = shard_begin; k < shard_end; ++k) {
          const auto slot = static_cast<std::size_t>(k);
          const int fi = window_ids_[slot];
          const Image& frame = window_->at(first + static_cast<int>(k));
          const Bitmap raw = segmenter_.Segment(frame, fi);
          colors.Add(frame, raw);
          if (InDecompositionRange(fi)) EncodeMaskRuns(raw, &slot_runs_[slot]);
        }
      });
  for (int k = 0; k < count; ++k) {
    const auto slot = static_cast<std::size_t>(k);
    if (InDecompositionRange(window_ids_[slot])) {
      ThrowIfFailed(masks_.Put(window_ids_[slot], slot_runs_[slot]));
    }
  }
}

void StreamingReconstructor::DecomposeWindow() {
  const int count = window_->size();
  ++stats_.window_flushes;

  const int first = window_->first_index();
  const std::size_t needed =
      static_cast<std::size_t>(common::NumShards(count));
  while (shards_.size() < needed) {
    LeakShard fresh;
    fresh.acc.Zero(pixels_);
    shards_.push_back(std::move(fresh));
  }
  // The store hands masks out serially, in frame order.
  for (int k = 0; k < count; ++k) {
    const auto slot = static_cast<std::size_t>(k);
    ThrowIfFailed(masks_.Take(window_ids_[slot], &slot_runs_[slot]));
  }

  // Decomposition dominates the pipeline cost; shard the resident frame
  // range across threads, each accumulating privately into a shard that
  // persists across flushes. Per-frame outputs index into preallocated
  // slots, so writes are disjoint. Window slot k holds original frame
  // window_ids_[k]; the two diverge once quarantined or skipped frames are
  // dropped.
  common::ParallelShards(
      0, count, /*grain=*/1,
      [&](int shard, std::int64_t shard_begin, std::int64_t shard_end) {
        LeakShard& s = shards_[static_cast<std::size_t>(shard)];
        LeakAccumulators& a = s.acc;
        for (std::int64_t k = shard_begin; k < shard_end; ++k) {
          const int wi = first + static_cast<int>(k);
          const auto slot = static_cast<std::size_t>(k);
          const int fi = window_ids_[slot];
          DecomposeWindowFrame(wi, fi, slot_runs_[slot], s);
          auto pf = window_->at(wi).pixels();
          auto pl = s.scratch.lb.pixels();
          const std::size_t leaked = imaging::kernels::MaskedAccumulateRgb(
              pf, pl, a.counts, a.sum_r, a.sum_g, a.sum_b, a.sum_r2, a.sum_g2,
              a.sum_b2);
          result_.per_frame_leak_fraction[static_cast<std::size_t>(fi)] =
              static_cast<double>(leaked) / static_cast<double>(pl.size());
          if (opts_.recon.keep_frame_masks) {
            result_.frame_masks[static_cast<std::size_t>(fi)] =
                std::move(s.scratch);
          }
        }
      });
  if (!opts_.checkpoint_path.empty()) {
    // Every range frame up to the newest one just decomposed is now covered
    // by the combined accumulators (quarantined frames by the saved list).
    SealCheckpoint(window_ids_.back() + 1);
  }
}

LeakAccumulators StreamingReconstructor::ReduceShards() {
  // Deterministic serial reduction in shard order (exact: the sums are
  // integer-valued, so the order is immaterial to the bits). The resumed
  // base joins at the front.
  LeakAccumulators total;
  total.Zero(pixels_);
  if (resume_base_) total.Add(*resume_base_);
  for (const LeakShard& s : shards_) total.Add(s.acc);
  return total;
}

PartialResult StreamingReconstructor::Snapshot(int frames_done) {
  PartialResult partial;
  partial.info = info_;
  partial.config_hash = ConfigHash(opts_.recon, opts_.config_salt);
  partial.range_begin = shard_begin_;
  partial.range_end = shard_end_;
  partial.frames_done = frames_done;
  partial.bad_budget = bad_budget_;
  partial.min_leak_count = opts_.recon.min_leak_count;
  partial.max_color_spread = opts_.recon.max_color_spread;
  partial.bad_frame_events = stats_.bad_frame_events;
  partial.quarantined = QuarantinedFrames();
  partial.acc = ReduceShards();
  partial.per_frame_leak_fraction.assign(
      result_.per_frame_leak_fraction.begin() + shard_begin_,
      result_.per_frame_leak_fraction.begin() + shard_end_);
  return partial;
}

void StreamingReconstructor::SealCheckpoint(int frames_done) {
  const PartialResult checkpoint = Snapshot(frames_done);
  const Status saved = SavePartial(checkpoint, opts_.checkpoint_path);
  if (saved.ok()) {
    ++stats_.checkpoint_writes;
    if (trace::Enabled()) trace::AddCounter("recover.checkpoint_writes", 1);
  } else {
    // A failing checkpoint sink degrades resumability, not the run itself.
    ++stats_.checkpoint_write_failures;
    if (trace::Enabled()) {
      trace::AddCounter("recover.checkpoint_write_failures", 1);
    }
  }
}

void StreamingReconstructor::DecomposeWindowFrame(
    int window_index, int frame_index, std::span<const std::uint8_t> raw_runs,
    LeakShard& shard) {
  const Image& frame = window_->at(window_index);
  FrameDecomposition& d = shard.scratch;
  {
    const trace::ScopedTimer timer("reconstruct.vbm");
    ComputeVbmInto(frame,
                   reference_.ImageFor(frame, frame_index, opts_.recon.vb),
                   reference_.ValidFor(frame, frame_index, opts_.recon.vb),
                   opts_.recon.vb.match_tolerance, &d.vbm);
  }
  {
    const trace::ScopedTimer timer("reconstruct.bbm");
    d.bbm = ComputeBbm(d.vbm, opts_.recon.phi);
  }
  {
    const trace::ScopedTimer timer("reconstruct.vcm");
    if (shard.raw.width() != frame.width() ||
        shard.raw.height() != frame.height()) {
      shard.raw = Bitmap(frame.width(), frame.height());
    }
    if (!DecodeMaskRuns(raw_runs, &shard.raw)) {
      throw MaskStoreFailure(
          Status(StatusCode::kDataLoss, "stored caller mask does not decode")
              .WithContext("frame " + std::to_string(frame_index)));
    }
    d.vcm = masker_.Refine(frame, shard.raw);
  }
  {
    const trace::ScopedTimer timer("reconstruct.lb");
    // LB = residue after removing the three components.
    if (d.lb.width() != frame.width() || d.lb.height() != frame.height()) {
      d.lb = Bitmap(frame.width(), frame.height());
    }
    imaging::kernels::MaskNor(d.bbm.pixels(), d.vcm.pixels(), d.lb.pixels());
  }
  if (trace::Enabled()) {
    // Per-stage masked-pixel volumes; summed per frame, so the totals are
    // independent of how the frame loop is sharded across threads.
    trace::AddCounter("reconstruct.frames_decomposed", 1);
    trace::AddCounter("reconstruct.pixels.vbm", imaging::CountSet(d.vbm));
    trace::AddCounter("reconstruct.pixels.bbm", imaging::CountSet(d.bbm));
    trace::AddCounter("reconstruct.pixels.vcm", imaging::CountSet(d.vcm));
    trace::AddCounter("reconstruct.pixels.lb", imaging::CountSet(d.lb));
  }
}

void StreamingReconstructor::EndPass(int pass) {
  if (pass != current_pass_) {
    throw std::logic_error("StreamingReconstructor: EndPass out of order");
  }
  if (pass < analysis_passes_) {
    segmenter_.EndAnalysisPass(pass);
  } else if (pass == analysis_passes_) {
    FlushWindow();
    for (const CallerColorCounts& colors : caller_shards_) {
      masker_.Fold(colors);
    }
    caller_shards_.clear();
    masker_.EndPrepare();
    caller_timer_.reset();
  } else {
    FlushWindow();
    accumulate_timer_.reset();
  }
}

void StreamingReconstructor::FinishRun() {
  stats_.peak_window_frames = window_->peak_size();
  stats_.pool_hits = pool_.hits();
  stats_.pool_misses = pool_.misses();
  stats_.masks_spilled = masks_.spilled_masks();
  window_.reset();
  window_ids_ = {};
  slot_runs_ = {};
  pool_ = video::BufferPool();
  masks_.Clear();
  shards_ = {};
  if (trace::Enabled()) {
    trace::AddCounter("stream.window_capacity",
                      static_cast<std::uint64_t>(stats_.window_capacity));
    trace::AddCounter("stream.peak_window_frames",
                      static_cast<std::uint64_t>(stats_.peak_window_frames));
    trace::AddCounter("stream.window_flushes", stats_.window_flushes);
    trace::AddCounter("stream.frames_pushed", stats_.frames_pushed);
    trace::AddCounter("stream.pool_hits", stats_.pool_hits);
    trace::AddCounter("stream.pool_misses", stats_.pool_misses);
    trace::AddCounter("stream.masks_spilled", stats_.masks_spilled);
  }
}

ReconstructionResult StreamingReconstructor::Finalize() {
  if (opts_.shard_count > 0) {
    throw std::logic_error(
        "StreamingReconstructor: shard mode emits a mergeable partial - "
        "use FinalizePartial()");
  }
  if (current_pass_ != TotalPasses() - 1) {
    throw std::logic_error(
        "StreamingReconstructor: Finalize before the final pass");
  }
  current_pass_ = TotalPasses();  // guard against reuse without Begin()

  const trace::ScopedTimer finalize_timer("reconstruct.finalize");
  const LeakAccumulators total = ReduceShards();
  // Shared pixel finalization (core/reduce.h): the exact code path
  // ReducePartials uses, which is what makes an N-shard merge bit-identical
  // to this single-process finalize.
  FinalizeBackground(total, info_.width, info_.height,
                     opts_.recon.max_color_spread,
                     opts_.recon.min_leak_count, &result_);
  FinishRun();
  // A completed run supersedes its checkpoint.
  if (!opts_.checkpoint_path.empty()) {
    (void)std::remove(opts_.checkpoint_path.c_str());
  }
  return std::move(result_);
}

PartialResult StreamingReconstructor::FinalizePartial() {
  if (current_pass_ != TotalPasses() - 1) {
    throw std::logic_error(
        "StreamingReconstructor: FinalizePartial before the final pass");
  }
  current_pass_ = TotalPasses();  // guard against reuse without Begin()

  const trace::ScopedTimer finalize_timer("reconstruct.finalize");
  PartialResult partial = Snapshot(shard_end_);
  FinishRun();
  if (trace::Enabled()) {
    trace::AddCounter("shard.partials_emitted", 1);
    trace::AddCounter(
        "shard.range_frames",
        static_cast<std::uint64_t>(shard_end_ - shard_begin_));
  }
  // The emitted partial supersedes this worker's checkpoint.
  if (!opts_.checkpoint_path.empty()) {
    (void)std::remove(opts_.checkpoint_path.c_str());
  }
  return partial;
}

Status StreamingReconstructor::AbortForStop() {
  const bool decomposing = current_pass_ == analysis_passes_ + 1;
  if (decomposing && !opts_.checkpoint_path.empty()) {
    // Seal the in-flight window: FlushWindow decomposes the resident
    // frames and checkpoints past them, so nothing pushed so far is lost.
    // An empty window means the last flush's checkpoint already covers
    // every decomposed frame.
    FlushWindow();
    return Status(StatusCode::kAborted,
                  "interrupted: checkpoint sealed at frame " +
                      std::to_string(next_frame_) + " of " +
                      std::to_string(info_.frame_count));
  }
  return Status(StatusCode::kAborted,
                "interrupted on pass " + std::to_string(current_pass_) +
                    " before decomposition progress existed");
}

Status StreamingReconstructor::RunPasses(video::FrameSource& source) {
  Begin(source.info());
  if (bad_budget_ >= 0 && quarantined_count_ > bad_budget_) {
    return Status(StatusCode::kAborted,
                  "bad-frame budget exceeded before any pull: " +
                      std::to_string(quarantined_count_) +
                      " frames quarantined by the resumed checkpoint "
                      "(budget " +
                      std::to_string(bad_budget_) + ")");
  }
  const int total_passes = TotalPasses();
  const int n = info_.frame_count;
  for (int pass = 0; pass < total_passes; ++pass) {
    source.Reset();
    BeginPass(pass);
    const bool windowed = Windowed();
    // Decomposition-prefix fast-forward: frames below decomp_begin_
    // (resumed and/or earlier shards' slices) contribute nothing to the
    // decomposition pass, so a seekable source (indexed .bbv, in-memory
    // stream) need not even decode them; a non-seekable source falls back
    // to pulling and discarding the prefix - bit-identical either way. A
    // zero-frame prefix never touches Seek, so a shard starting at frame 0
    // of a non-seekable stream runs without error. Frames at or past this
    // worker's slice end are simply never pulled on this pass.
    int start = 0;
    int stop = n;
    if (pass == analysis_passes_ + 1) {
      stop = shard_end_;
      if (decomp_begin_ > 0 && source.CanSeek()) {
        const int skip_to = std::min(decomp_begin_, n);
        if (source.Seek(skip_to).ok()) {
          SkipDecomposedPrefix(skip_to);
          start = skip_to;
          if (trace::Enabled()) {
            trace::AddCounter("recover.seek_skipped_frames",
                              static_cast<std::uint64_t>(skip_to));
          }
        }
      }
    }
    // Windowed passes pull directly into pooled buffers and move them
    // into the window (allocation-free at steady state).
    Image buffer =
        windowed ? pool_.AcquireImage(info_.width, info_.height) : Image();
    for (int i = start; i < stop; ++i) {
      if (opts_.stop != nullptr &&
          opts_.stop->load(std::memory_order_relaxed)) {
        if (windowed) pool_.Release(std::move(buffer));
        return AbortForStop();
      }
      const video::FramePull pull = source.Pull(buffer);
      if (pull.status == video::PullStatus::kEnd) break;
      if (pull.status == video::PullStatus::kBad) {
        const Status budget = PushBadFrame(i, pull.error);
        if (!budget.ok()) return budget;
        continue;
      }
      if (windowed) {
        PushFrame(std::move(buffer), i);
        buffer = pool_.AcquireImage(info_.width, info_.height);
      } else {
        PushFrame(buffer, i);
      }
    }
    if (windowed) pool_.Release(std::move(buffer));
    EndPass(pass);
  }
  return OkStatus();
}

Result<ReconstructionResult> StreamingReconstructor::Run(
    video::FrameSource& source) {
  if (opts_.shard_count > 0) {
    return Status(StatusCode::kFailedPrecondition,
                  "shard mode emits a mergeable partial - use RunPartial()");
  }
  try {
    if (Status passes = RunPasses(source); !passes.ok()) return passes;
    return Finalize();
  } catch (const std::bad_alloc&) {
    return Status(StatusCode::kResourceExhausted,
                  "out of memory during streaming reconstruction");
  } catch (const MaskStoreFailure& failure) {
    return failure.status();
  }
}

Result<PartialResult> StreamingReconstructor::RunPartial(
    video::FrameSource& source) {
  try {
    if (Status passes = RunPasses(source); !passes.ok()) return passes;
    return FinalizePartial();
  } catch (const std::bad_alloc&) {
    return Status(StatusCode::kResourceExhausted,
                  "out of memory during streaming reconstruction");
  } catch (const MaskStoreFailure& failure) {
    return failure.status();
  }
}

}  // namespace bb::core
