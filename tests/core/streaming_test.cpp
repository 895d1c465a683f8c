// Golden bit-identity suite for the streaming reconstruction core: at every
// window size and thread count, StreamingReconstructor must produce results
// byte-identical to the batch Reconstructor::Run on the same call. This is
// the contract that lets the batch entry point be a thin wrapper over the
// streaming core without perturbing any pinned golden value.
#include "core/streaming.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/faultinject.h"
#include "common/parallel.h"
#include "core/mask_store.h"
#include "core/metrics.h"
#include "core/reduce.h"
#include "segmentation/segmenter.h"
#include "synth/recorder.h"
#include "vbg/compositor.h"
#include "video/frame_source.h"

namespace bb::core {
namespace {

using imaging::Image;

// A 64x48, 40-frame composited call with ground truth.
struct StreamFixture {
  synth::RawRecording raw;
  vbg::CompositedCall call;
  Image vb_image;

  StreamFixture() {
    synth::RecordingSpec spec;
    spec.scene.width = 64;
    spec.scene.height = 48;
    spec.action.kind = synth::ActionKind::kArmWave;
    spec.fps = 10.0;
    spec.duration_s = 4.0;
    spec.seed = 77;
    raw = synth::RecordCall(spec);
    vb_image = vbg::MakeStockImage(vbg::StockImage::kBeach, 64, 48);
    const vbg::StaticImageSource vb(vb_image);
    call = vbg::ApplyVirtualBackground(raw, vb);
  }

  static const StreamFixture& Shared() {
    static const StreamFixture f;
    return f;
  }
};

void ExpectIdentical(const ReconstructionResult& a,
                     const ReconstructionResult& b, const std::string& what) {
  EXPECT_EQ(a.background, b.background) << what;
  EXPECT_EQ(a.coverage, b.coverage) << what;
  EXPECT_EQ(a.leak_counts, b.leak_counts) << what;
  EXPECT_EQ(a.per_frame_leak_fraction, b.per_frame_leak_fraction) << what;
}

class StreamingIdentityTest : public ::testing::Test {
 protected:
  void TearDown() override { common::SetThreadCount(0); }
};

TEST_F(StreamingIdentityTest, BitIdenticalToBatchAcrossWindowsAndThreads) {
  const StreamFixture& f = StreamFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);

  // Batch baseline at one thread.
  common::SetThreadCount(1);
  segmentation::NoisyOracleSegmenter batch_seg(f.raw.caller_masks, {}, 7);
  Reconstructor batch(ref, batch_seg);
  const ReconstructionResult baseline = batch.Run(f.call.video);

  for (int threads = 1; threads <= 8; ++threads) {
    common::SetThreadCount(threads);
    for (int window : {10, 16, 64}) {
      segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);
      StreamingOptions opts;
      opts.window_frames = window;
      StreamingReconstructor streaming(ref, seg, opts);
      video::VideoStreamSource source(f.call.video);
      const ReconstructionResult rec = streaming.Run(source).value();
      ExpectIdentical(rec, baseline,
                      "threads " + std::to_string(threads) + " window " +
                          std::to_string(window));
    }
  }
}

TEST_F(StreamingIdentityTest, VideoVbLoopPeriodPathIsBitIdentical) {
  synth::RecordingSpec spec;
  spec.scene.width = 64;
  spec.scene.height = 48;
  spec.action.kind = synth::ActionKind::kArmWave;
  spec.fps = 9.0;
  spec.duration_s = 4.0;  // 36 frames
  spec.seed = 31;
  const auto raw = synth::RecordCall(spec);
  auto frames = vbg::MakeStockVideo(vbg::StockVideo::kStars, 64, 48, 6);
  const vbg::LoopingVideoSource vb(frames);
  const auto call = vbg::ApplyVirtualBackground(raw, vb);

  // Derive the VB reference from the call itself, both ways: the streaming
  // derivation (loop-period detection + banded phase estimation) must agree
  // with the batch derivation bit-for-bit before reconstruction even starts.
  const auto batch_ref = VbReference::DeriveVideo(call.video);
  ASSERT_TRUE(batch_ref.has_value());
  video::VideoStreamSource ref_source(call.video);
  const auto stream_ref =
      VbReference::DeriveVideoStreaming(ref_source, /*window_frames=*/10);
  ASSERT_TRUE(stream_ref.has_value());

  common::SetThreadCount(1);
  segmentation::NoisyOracleSegmenter batch_seg(raw.caller_masks, {}, 7);
  Reconstructor batch(*batch_ref, batch_seg);
  const ReconstructionResult baseline = batch.Run(call.video);

  for (int threads : {1, 4}) {
    common::SetThreadCount(threads);
    for (int window : {10, 64}) {
      segmentation::NoisyOracleSegmenter seg(raw.caller_masks, {}, 7);
      StreamingOptions opts;
      opts.window_frames = window;
      StreamingReconstructor streaming(*stream_ref, seg, opts);
      video::VideoStreamSource source(call.video);
      const ReconstructionResult rec = streaming.Run(source).value();
      ExpectIdentical(rec, baseline,
                      "threads " + std::to_string(threads) + " window " +
                          std::to_string(window));
    }
  }
}

TEST_F(StreamingIdentityTest, KeepFrameMasksMatchesBatchPerFrame) {
  const StreamFixture& f = StreamFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  ReconstructionOptions ropts;
  ropts.keep_frame_masks = true;

  segmentation::NoisyOracleSegmenter batch_seg(f.raw.caller_masks, {}, 7);
  Reconstructor batch(ref, batch_seg, ropts);
  const ReconstructionResult baseline = batch.Run(f.call.video);

  segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);
  StreamingOptions opts;
  opts.window_frames = 10;
  opts.recon = ropts;
  StreamingReconstructor streaming(ref, seg, opts);
  video::VideoStreamSource source(f.call.video);
  const ReconstructionResult rec = streaming.Run(source).value();

  ExpectIdentical(rec, baseline, "keep_frame_masks window 10");
  ASSERT_EQ(rec.frame_masks.size(), baseline.frame_masks.size());
  for (std::size_t i = 0; i < baseline.frame_masks.size(); ++i) {
    EXPECT_EQ(rec.frame_masks[i].vbm, baseline.frame_masks[i].vbm) << i;
    EXPECT_EQ(rec.frame_masks[i].bbm, baseline.frame_masks[i].bbm) << i;
    EXPECT_EQ(rec.frame_masks[i].vcm, baseline.frame_masks[i].vcm) << i;
    EXPECT_EQ(rec.frame_masks[i].lb, baseline.frame_masks[i].lb) << i;
  }
}

TEST(StreamingStatsTest, PeakResidencyBoundedByWindowAndPoolRecycles) {
  const StreamFixture& f = StreamFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);
  StreamingOptions opts;
  opts.window_frames = 10;
  StreamingReconstructor streaming(ref, seg, opts);
  video::VideoStreamSource source(f.call.video);
  ASSERT_TRUE(streaming.Run(source).ok());

  const StreamingStats& stats = streaming.stats();
  EXPECT_EQ(stats.window_capacity, 10);
  EXPECT_LE(stats.peak_window_frames, 10);
  EXPECT_EQ(stats.frames_pushed,
            static_cast<std::uint64_t>(f.call.video.frame_count()));
  EXPECT_EQ(stats.window_flushes, 4u);  // 40 frames / window 10
  EXPECT_GT(stats.pool_hits, 0u);
  // Steady state recycles a fixed buffer set: misses stay around one
  // window's worth, far below one per frame.
  EXPECT_LT(stats.pool_misses, stats.frames_pushed);
  EXPECT_EQ(stats.masks_spilled, 0u);  // far below the resident cap
}

TEST(StreamingProtocolTest, RejectsInvalidWindowAndOutOfOrderPushes) {
  const StreamFixture& f = StreamFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);

  StreamingOptions bad;
  bad.window_frames = 0;
  EXPECT_THROW(StreamingReconstructor(ref, seg, bad), std::invalid_argument);

  StreamingReconstructor streaming(ref, seg);
  video::VideoStreamSource source(f.call.video);
  streaming.Begin(source.info());
  streaming.BeginPass(0);
  Image frame;
  ASSERT_TRUE(source.Next(frame));
  streaming.PushFrame(frame, 0);
  // Skipping ahead violates the in-order contract.
  EXPECT_THROW(streaming.PushFrame(frame, 2), std::logic_error);
  // Passes must be visited in sequence.
  EXPECT_THROW(streaming.BeginPass(5), std::logic_error);
}

TEST(StreamingProtocolTest, SegmenterFailuresPropagate) {
  const StreamFixture& f = StreamFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  // An oracle with no masks throws as soon as a frame is segmented.
  segmentation::NoisyOracleSegmenter seg({}, {}, 1);
  StreamingOptions opts;
  opts.window_frames = 10;
  StreamingReconstructor streaming(ref, seg, opts);
  video::VideoStreamSource source(f.call.video);
  EXPECT_THROW((void)streaming.Run(source), std::out_of_range);
}

// ---- Segment once: the caller pass is the only Segment() call site --------

// Forwards to `inner` and counts Segment() calls per frame. Segment runs
// concurrently on the thread pool, hence the atomics.
class CountingSegmenter final : public segmentation::PersonSegmenter {
 public:
  CountingSegmenter(segmentation::PersonSegmenter& inner, int frames)
      : inner_(inner), calls_(static_cast<std::size_t>(frames)) {}

  int AnalysisPasses() const override { return inner_.AnalysisPasses(); }
  void BeginAnalysisPass(int pass, const video::StreamInfo& info) override {
    inner_.BeginAnalysisPass(pass, info);
  }
  void PushAnalysisFrame(int pass, const Image& frame,
                         int frame_index) override {
    inner_.PushAnalysisFrame(pass, frame, frame_index);
  }
  void EndAnalysisPass(int pass) override { inner_.EndAnalysisPass(pass); }
  imaging::Bitmap Segment(const Image& frame, int frame_index) override {
    calls_[static_cast<std::size_t>(frame_index)].fetch_add(
        1, std::memory_order_relaxed);
    return inner_.Segment(frame, frame_index);
  }

  // Segment() calls so far, per frame.
  std::vector<int> Calls() const {
    std::vector<int> out;
    for (const auto& c : calls_) out.push_back(c.load());
    return out;
  }

 private:
  segmentation::PersonSegmenter& inner_;
  std::vector<std::atomic<int>> calls_;
};

std::vector<int> OncePerFrame(int frames, std::vector<int> skipped = {}) {
  std::vector<int> want(static_cast<std::size_t>(frames), 1);
  for (int i : skipped) want[static_cast<std::size_t>(i)] = 0;
  return want;
}

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "bb_streaming_" + name;
}

class SegmentOnceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const StreamFixture& f = StreamFixture::Shared();
    ref_.emplace(VbReference::KnownImage(f.vb_image));
    common::SetThreadCount(1);
    segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);
    Reconstructor batch(*ref_, seg);
    baseline_ = batch.Run(f.call.video);
  }
  void TearDown() override {
    faultinject::Clear();
    MaskStore::SetResidentCapForTest(0);
    common::SetThreadCount(0);
  }

  std::optional<VbReference> ref_;
  ReconstructionResult baseline_;
};

TEST_F(SegmentOnceTest, EveryFrameOnceAtAnyWindowAndThreadCount) {
  const StreamFixture& f = StreamFixture::Shared();
  const int n = f.call.video.frame_count();
  for (int threads : {1, 4}) {
    common::SetThreadCount(threads);
    for (int window : {1, 10, n}) {
      segmentation::NoisyOracleSegmenter oracle(f.raw.caller_masks, {}, 7);
      CountingSegmenter seg(oracle, n);
      StreamingOptions opts;
      opts.window_frames = window;
      StreamingReconstructor streaming(*ref_, seg, opts);
      video::VideoStreamSource source(f.call.video);
      const auto run = streaming.Run(source);
      const std::string what = "threads " + std::to_string(threads) +
                               " window " + std::to_string(window);
      ASSERT_TRUE(run.ok()) << what << ": " << run.status().ToString();
      EXPECT_EQ(seg.Calls(), OncePerFrame(n)) << what;
      ExpectIdentical(*run, baseline_, what);
    }
  }
}

TEST_F(SegmentOnceTest, ShardWorkersSegmentOncePerFrameNeverWhileDecomposing) {
  const StreamFixture& f = StreamFixture::Shared();
  const int n = f.call.video.frame_count();
  common::SetThreadCount(4);
  std::vector<PartialResult> partials;
  for (int shard = 0; shard < 3; ++shard) {
    segmentation::NoisyOracleSegmenter oracle(f.raw.caller_masks, {}, 7);
    CountingSegmenter seg(oracle, n);
    StreamingOptions opts;
    opts.window_frames = 10;
    opts.shard_index = shard;
    opts.shard_count = 3;
    StreamingReconstructor worker(*ref_, seg, opts);
    video::VideoStreamSource source(f.call.video);
    worker.Begin(source.info());
    const int decomposition_pass = worker.TotalPasses() - 1;
    for (int pass = 0; pass <= decomposition_pass; ++pass) {
      // The global caller statistics need every frame: each worker
      // segments the whole stream, once.
      if (pass == decomposition_pass) {
        EXPECT_EQ(seg.Calls(), OncePerFrame(n)) << "shard " << shard;
      }
      worker.BeginPass(pass);
      for (int i = 0; i < n; ++i) worker.PushFrame(f.call.video.frame(i), i);
      worker.EndPass(pass);
    }
    EXPECT_EQ(seg.Calls(), OncePerFrame(n)) << "shard " << shard;
    partials.push_back(worker.FinalizePartial());
  }
  const auto merged = ReducePartials(std::move(partials));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ExpectIdentical(*merged, baseline_, "3 shards");
}

TEST_F(SegmentOnceTest, ResumedRunSegmentsOncePerFrame) {
  const StreamFixture& f = StreamFixture::Shared();
  const int n = f.call.video.frame_count();
  const std::string path = TestPath("segment_once.bbck");
  std::remove(path.c_str());
  StreamingOptions opts;
  opts.window_frames = 10;
  opts.checkpoint_path = path;
  {
    // Interrupted after two decomposition flushes (checkpoint at frame 20).
    segmentation::NoisyOracleSegmenter oracle(f.raw.caller_masks, {}, 7);
    CountingSegmenter seg(oracle, n);
    StreamingReconstructor interrupted(*ref_, seg, opts);
    video::VideoStreamSource source(f.call.video);
    interrupted.Begin(source.info());
    interrupted.BeginPass(0);
    for (int i = 0; i < n; ++i) interrupted.PushFrame(f.call.video.frame(i), i);
    interrupted.EndPass(0);
    interrupted.BeginPass(1);
    for (int i = 0; i < 25; ++i) {
      interrupted.PushFrame(f.call.video.frame(i), i);
    }
    ASSERT_EQ(interrupted.stats().checkpoint_writes, 2u);
    EXPECT_EQ(seg.Calls(), OncePerFrame(n));
  }
  common::SetThreadCount(4);
  segmentation::NoisyOracleSegmenter oracle(f.raw.caller_masks, {}, 7);
  CountingSegmenter seg(oracle, n);
  StreamingReconstructor resumed(*ref_, seg, opts);
  video::VideoStreamSource source(f.call.video);
  const auto run = resumed.Run(source);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(resumed.stats().resume_frames_done, 20);
  EXPECT_EQ(seg.Calls(), OncePerFrame(n));
  ExpectIdentical(*run, baseline_, "resumed");
}

TEST_F(SegmentOnceTest, QuarantinedFramesAreNeverSegmented) {
  const StreamFixture& f = StreamFixture::Shared();
  const int n = f.call.video.frame_count();
  ASSERT_TRUE(faultinject::Configure("source@3=fail,source@17=corrupt").ok());
  for (int threads : {1, 4}) {
    common::SetThreadCount(threads);
    segmentation::NoisyOracleSegmenter oracle(f.raw.caller_masks, {}, 7);
    CountingSegmenter seg(oracle, n);
    StreamingOptions opts;
    opts.window_frames = 10;
    StreamingReconstructor streaming(*ref_, seg, opts);
    video::VideoStreamSource source(f.call.video);
    ASSERT_TRUE(streaming.Run(source).ok());
    EXPECT_EQ(streaming.stats().frames_quarantined, 2);
    EXPECT_EQ(seg.Calls(), OncePerFrame(n, {3, 17})) << threads;
  }
}

// ---- Mask store spill ------------------------------------------------------

// Small enough that the 64x48 fixture's masks spill after the first few.
constexpr std::size_t kTinyResidentCap = 2000;

TEST_F(SegmentOnceTest, SpilledMasksAreByteIdenticalToResidentOnes) {
  const StreamFixture& f = StreamFixture::Shared();
  MaskStore::SetResidentCapForTest(kTinyResidentCap);
  common::SetThreadCount(4);
  for (int window : {10, 64}) {
    segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);
    StreamingOptions opts;
    opts.window_frames = window;
    StreamingReconstructor streaming(*ref_, seg, opts);
    video::VideoStreamSource source(f.call.video);
    const auto run = streaming.Run(source);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_GT(streaming.stats().masks_spilled, 0u) << window;
    EXPECT_LT(streaming.stats().masks_spilled,
              static_cast<std::uint64_t>(f.call.video.frame_count()))
        << "some masks stay resident";
    ExpectIdentical(*run, baseline_, "spill window " + std::to_string(window));
  }
  std::vector<PartialResult> partials;
  for (int shard = 0; shard < 3; ++shard) {
    segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);
    StreamingOptions opts;
    opts.window_frames = 10;
    opts.shard_index = shard;
    opts.shard_count = 3;
    StreamingReconstructor worker(*ref_, seg, opts);
    video::VideoStreamSource source(f.call.video);
    auto partial = worker.RunPartial(source);
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    partials.push_back(std::move(*partial));
  }
  const auto merged = ReducePartials(std::move(partials));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ExpectIdentical(*merged, baseline_, "spill 3 shards");
}

TEST_F(SegmentOnceTest, SpillFailuresAreStructuredErrors) {
  const StreamFixture& f = StreamFixture::Shared();
  MaskStore::SetResidentCapForTest(kTinyResidentCap);
  const auto run_with = [&](const std::string& faults) {
    EXPECT_TRUE(faultinject::Configure(faults).ok()) << faults;
    segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);
    StreamingOptions opts;
    opts.window_frames = 10;
    StreamingReconstructor streaming(*ref_, seg, opts);
    video::VideoStreamSource source(f.call.video);
    return streaming.Run(source);
  };
  // The first spilled write fails.
  const auto write = run_with("spill@0=fail");
  ASSERT_FALSE(write.ok());
  EXPECT_EQ(write.status().code(), StatusCode::kIoError);
  EXPECT_NE(write.status().message().find("spill write"), std::string::npos)
      << write.status().ToString();

  // Every spilled mask takes one write; the next spill operation is the
  // first read-back.
  faultinject::Clear();
  segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);
  StreamingOptions opts;
  opts.window_frames = 10;
  StreamingReconstructor clean(*ref_, seg, opts);
  video::VideoStreamSource source(f.call.video);
  ASSERT_TRUE(clean.Run(source).ok());
  const std::uint64_t writes = clean.stats().masks_spilled;
  ASSERT_GT(writes, 0u);
  const auto read = run_with("spill@" + std::to_string(writes) + "=fail");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  EXPECT_NE(read.status().message().find("spill read"), std::string::npos)
      << read.status().ToString();
}

}  // namespace
}  // namespace bb::core
