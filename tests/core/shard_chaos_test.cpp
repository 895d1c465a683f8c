// Chaos extension for sharded map-reduce reconstruction (ctest label
// "chaos"; see tests/CMakeLists.txt). The fault-tolerance contracts of
// DESIGN.md section 11 must survive the shard boundary of section 14:
//   * a shard worker killed mid-range resumes from its own checkpoint -
//     even at a different thread count - and the reduced output is still
//     bit-identical to the uninterrupted single-process run, while the
//     checkpoint itself (a BBPR partial short of its range end) is refused
//     by the reducer;
//   * a checkpoint written for a different shard range is refused with a
//     structured reason and the worker falls back to a fresh (still
//     correct) run, so splicing another worker's progress is impossible;
//   * frames quarantined by an injected fault schedule stay quarantined in
//     every partial and in the merged result, which matches the degraded
//     single-process reference bit for bit.
#include "core/streaming.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../common/temp_dir.h"
#include "common/faultinject.h"
#include "common/parallel.h"
#include "core/partial.h"
#include "core/reduce.h"
#include "segmentation/segmenter.h"
#include "synth/recorder.h"
#include "vbg/compositor.h"
#include "video/frame_source.h"

namespace bb::core {
namespace {

using imaging::Image;

// A 64x48, 40-frame composited call with ground truth (same scenario family
// as the chaos and shard suites).
struct ShardChaosFixture {
  synth::RawRecording raw;
  vbg::CompositedCall call;
  Image vb_image;

  ShardChaosFixture() {
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

  static const ShardChaosFixture& Shared() {
    static const ShardChaosFixture f;
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

std::unique_ptr<segmentation::PersonSegmenter> MakeOracle(
    const ShardChaosFixture& f) {
  return std::make_unique<segmentation::NoisyOracleSegmenter>(
      f.raw.caller_masks, segmentation::NoisyOracleParams{}, 7);
}

// "Clean run over the surviving frames": the full manual push protocol with
// the given frames reported bad up front - the independent single-process
// reference the merged shard runs must match.
ReconstructionResult ManualBadFrameReference(
    const VbReference& ref, const vbg::CompositedCall& call,
    const std::vector<int>& bad, const StreamingOptions& opts,
    segmentation::PersonSegmenter& segmenter) {
  StreamingReconstructor manual(ref, segmenter, opts);
  video::VideoStreamSource source(call.video);
  manual.Begin(source.info());
  const Status reason(StatusCode::kDataLoss, "unreadable frame (reference)");
  for (int pass = 0; pass < manual.TotalPasses(); ++pass) {
    manual.BeginPass(pass);
    for (int i = 0; i < call.video.frame_count(); ++i) {
      if (std::find(bad.begin(), bad.end(), i) != bad.end()) {
        EXPECT_TRUE(manual.PushBadFrame(i, reason).ok());
      } else {
        manual.PushFrame(call.video.frame(i), i);
      }
    }
    manual.EndPass(pass);
  }
  return manual.Finalize();
}

class ShardChaosTest : public ::testing::Test {
 protected:
  void TearDown() override {
    faultinject::Clear();
    common::SetThreadCount(0);
  }
};

TEST_F(ShardChaosTest, KilledWorkerResumesAndTheMergeIsStillBitIdentical) {
  const ShardChaosFixture& f = ShardChaosFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  const std::string path = testdir::TempPath("killed_worker.bbck");
  std::remove(path.c_str());

  common::SetThreadCount(1);
  StreamingOptions base;
  base.window_frames = 5;
  auto golden_seg = MakeOracle(f);
  StreamingReconstructor single(ref, *golden_seg, base);
  video::VideoStreamSource golden_source(f.call.video);
  const ReconstructionResult golden = single.Run(golden_source).value();

  // Shards 0 and 2 complete normally.
  std::vector<PartialResult> partials;
  for (int i : {0, 2}) {
    StreamingOptions opts = base;
    opts.shard_index = i;
    opts.shard_count = 3;
    auto seg = MakeOracle(f);
    StreamingReconstructor worker(ref, *seg, opts);
    video::VideoStreamSource source(f.call.video);
    partials.push_back(worker.RunPartial(source).value());
  }

  // Shard 1 (range [13, 26)) is "killed" mid-range: the manual protocol
  // runs the caller pass, then 8 of its 13 range frames on the final pass -
  // one 5-frame window flush = one checkpoint write - and the instance is
  // abandoned with 3 decomposed-but-unflushed frames lost.
  StreamingOptions opts = base;
  opts.shard_index = 1;
  opts.shard_count = 3;
  opts.checkpoint_path = path;
  {
    auto seg = MakeOracle(f);
    StreamingReconstructor interrupted(ref, *seg, opts);
    video::VideoStreamSource source(f.call.video);
    interrupted.Begin(source.info());
    interrupted.BeginPass(0);
    for (int i = 0; i < f.call.video.frame_count(); ++i) {
      interrupted.PushFrame(f.call.video.frame(i), i);
    }
    interrupted.EndPass(0);
    interrupted.BeginPass(1);
    for (int i = 0; i < 21; ++i) {
      interrupted.PushFrame(f.call.video.frame(i), i);
    }
    EXPECT_EQ(interrupted.stats().checkpoint_writes, 1u);
  }
  {
    // The checkpoint left behind is a BBPR partial sealed at frame 18 of
    // [13, 26); the reducer must refuse it in place of a finished shard.
    auto checkpoint = LoadPartial(path);
    ASSERT_TRUE(checkpoint.ok()) << "interrupt must leave a checkpoint: "
                                 << checkpoint.status().ToString();
    EXPECT_EQ(checkpoint->range_begin, 13);
    EXPECT_EQ(checkpoint->range_end, 26);
    EXPECT_EQ(checkpoint->frames_done, 18);
    std::vector<PartialResult> early = partials;
    early.push_back(std::move(*checkpoint));
    const auto refused = ReducePartials(std::move(early));
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(refused.status().message().find(
                  "partial [13, 26) is an unfinished checkpoint: decomposed "
                  "only up to frame 18"),
              std::string::npos)
        << refused.status().ToString();
  }

  // Resume at a different thread count: the resume base joins the exact
  // integer-valued reduction, so the merged bits must still match.
  common::SetThreadCount(4);
  auto seg = MakeOracle(f);
  StreamingReconstructor resumed(ref, *seg, opts);
  video::VideoStreamSource source(f.call.video);
  const auto partial = resumed.RunPartial(source);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(resumed.checkpoint_status().ok());
  EXPECT_TRUE(resumed.stats().resumed);
  EXPECT_EQ(resumed.stats().resume_frames_done, 18);
  partials.push_back(std::move(*partial));

  const auto merged = ReducePartials(std::move(partials));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ExpectIdentical(*merged, golden, "kill-resume-reduce");

  // A completed shard run supersedes its checkpoint.
  std::ifstream gone(path, std::ios::binary);
  EXPECT_FALSE(gone.good());
}

TEST_F(ShardChaosTest, CheckpointFromAnotherShardRangeIsRefused) {
  const ShardChaosFixture& f = ShardChaosFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  const std::string path = testdir::TempPath("cross_shard.bbck");
  std::remove(path.c_str());
  common::SetThreadCount(1);

  // Interrupt shard 0 (range [0, 13)) after one window flush, leaving a
  // checkpoint for *its* range behind.
  StreamingOptions opts;
  opts.window_frames = 5;
  opts.shard_index = 0;
  opts.shard_count = 3;
  opts.checkpoint_path = path;
  {
    auto seg = MakeOracle(f);
    StreamingReconstructor interrupted(ref, *seg, opts);
    video::VideoStreamSource source(f.call.video);
    interrupted.Begin(source.info());
    interrupted.BeginPass(0);
    for (int i = 0; i < f.call.video.frame_count(); ++i) {
      interrupted.PushFrame(f.call.video.frame(i), i);
    }
    interrupted.EndPass(0);
    interrupted.BeginPass(1);
    for (int i = 0; i < 8; ++i) {
      interrupted.PushFrame(f.call.video.frame(i), i);
    }
    EXPECT_EQ(interrupted.stats().checkpoint_writes, 1u);
  }

  // Shard 1 handed the same checkpoint path must refuse the splice with a
  // structured reason and run fresh - and the fresh run is still correct.
  StreamingOptions wrong = opts;
  wrong.shard_index = 1;
  auto seg = MakeOracle(f);
  StreamingReconstructor worker(ref, *seg, wrong);
  video::VideoStreamSource source(f.call.video);
  const auto partial = worker.RunPartial(source);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_FALSE(worker.stats().resumed);
  EXPECT_EQ(worker.checkpoint_status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_NE(worker.checkpoint_status().message().find(
                "different shard range [0, 13)"),
            std::string::npos);
  EXPECT_EQ(partial->range_begin, 13);
  EXPECT_EQ(partial->range_end, 26);
  std::remove(path.c_str());
}

TEST_F(ShardChaosTest, InjectedQuarantineSurvivesTheShardBoundary) {
  const ShardChaosFixture& f = ShardChaosFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  // One bad frame in shard 0's range, one in shard 1's; shard 2 is clean.
  const std::vector<int> bad = {5, 21};
  const char* spec = "source@5=fail,source@21=corrupt";

  common::SetThreadCount(2);
  StreamingOptions opts;
  opts.window_frames = 10;
  auto ref_seg = MakeOracle(f);
  const ReconstructionResult degraded =
      ManualBadFrameReference(ref, f.call, bad, opts, *ref_seg);

  std::vector<PartialResult> partials;
  for (int i = 0; i < 3; ++i) {
    // Schedule-driven faults fire on every pass of every worker, so each
    // worker quarantines both frames during its whole-stream analysis even
    // when neither falls in its decomposition range.
    ASSERT_TRUE(faultinject::Configure(spec).ok());
    StreamingOptions sopts = opts;
    sopts.shard_index = i;
    sopts.shard_count = 3;
    auto seg = MakeOracle(f);
    StreamingReconstructor worker(ref, *seg, sopts);
    video::VideoStreamSource source(f.call.video);
    const auto partial = worker.RunPartial(source);
    faultinject::Clear();
    ASSERT_TRUE(partial.ok()) << "shard " << i << ": "
                              << partial.status().ToString();
    EXPECT_EQ(partial->quarantined, bad) << "shard " << i;
    partials.push_back(std::move(*partial));
  }

  ReduceStats stats;
  const auto merged = ReducePartials(std::move(partials), &stats);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(stats.quarantined, 2);
  ExpectIdentical(*merged, degraded, "fault schedule across shards");
}

}  // namespace
}  // namespace bb::core
