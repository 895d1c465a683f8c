// Disk-fault chaos for the one sealed-state writer: BBPR partials and
// checkpoints and BBJB job records all seal through common::AtomicWriteFile
// and its "write" fault point, exercised here through SavePartial. The
// invariant pinned here: a failed seal NEVER leaves a truncated file
// visible at the destination path - the crash window lives entirely in the
// ".tmp" sibling, so readers only ever see the previous complete
// generation (or nothing). A corrupt seal that does land is caught by the
// loader's checksum, never silently trusted. The streaming checkpoint
// seal is pinned on top of that: a torn or failed seal costs the worker
// only resumability, and the resume finds the prior generation or starts
// fresh, never a torn or corrupt file.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "../common/temp_dir.h"
#include "common/faultinject.h"
#include "core/partial.h"
#include "core/streaming.h"
#include "segmentation/segmenter.h"
#include "synth/recorder.h"
#include "vbg/compositor.h"
#include "video/frame_source.h"

namespace bb::core {
namespace {

// A 32x24, 20-frame composited call. With a 5-frame window its
// decomposition pass seals a checkpoint after frames 5, 10, 15 and 20.
struct SealFixture {
  synth::RawRecording raw;
  vbg::CompositedCall call;
  imaging::Image vb_image;

  SealFixture() {
    synth::RecordingSpec spec;
    spec.scene.width = 32;
    spec.scene.height = 24;
    spec.action.kind = synth::ActionKind::kArmWave;
    spec.fps = 10.0;
    spec.duration_s = 2.0;
    spec.seed = 41;
    raw = synth::RecordCall(spec);
    vb_image = vbg::MakeStockImage(vbg::StockImage::kBeach, 32, 24);
    call = vbg::ApplyVirtualBackground(raw, vbg::StaticImageSource(vb_image));
  }

  static const SealFixture& Shared() {
    static const SealFixture f;
    return f;
  }

  std::unique_ptr<segmentation::PersonSegmenter> Oracle() const {
    return std::make_unique<segmentation::NoisyOracleSegmenter>(
        raw.caller_masks, segmentation::NoisyOracleParams{}, 7);
  }
};

StreamingOptions CheckpointOptions(const std::string& path) {
  StreamingOptions opts;
  opts.window_frames = 5;
  opts.checkpoint_path = path;
  return opts;
}

void ExpectIdentical(const ReconstructionResult& a,
                     const ReconstructionResult& b, const std::string& what) {
  EXPECT_EQ(a.background, b.background) << what;
  EXPECT_EQ(a.coverage, b.coverage) << what;
  EXPECT_EQ(a.leak_counts, b.leak_counts) << what;
  EXPECT_EQ(a.per_frame_leak_fraction, b.per_frame_leak_fraction) << what;
}

ReconstructionResult UninterruptedRun(const SealFixture& f,
                                      const VbReference& ref) {
  StreamingOptions opts;
  opts.window_frames = 5;
  auto seg = f.Oracle();
  StreamingReconstructor clean(ref, *seg, opts);
  video::VideoStreamSource source(f.call.video);
  return clean.Run(source).value();
}

// "Kills" a worker mid-decomposition: drives the push protocol through
// every pass before the last, then the first `frames` frames of the
// decomposition pass, and abandons the instance there.
StreamingStats KilledRun(const SealFixture& f, const VbReference& ref,
                         const StreamingOptions& opts, int frames) {
  auto seg = f.Oracle();
  StreamingReconstructor killed(ref, *seg, opts);
  video::VideoStreamSource source(f.call.video);
  killed.Begin(source.info());
  const int last = killed.TotalPasses() - 1;
  for (int pass = 0; pass <= last; ++pass) {
    killed.BeginPass(pass);
    const int pushed = pass == last ? frames : f.call.video.frame_count();
    for (int i = 0; i < pushed; ++i) {
      killed.PushFrame(f.call.video.frame(i), i);
    }
    if (pass != last) killed.EndPass(pass);
  }
  return killed.stats();
}

PartialResult SmallPartial() {
  PartialResult partial;
  partial.info.width = 4;
  partial.info.height = 3;
  partial.info.frame_count = 6;
  partial.info.fps = 12.0;
  partial.config_hash = 0x1234;
  partial.range_begin = 0;
  partial.range_end = 6;
  partial.frames_done = 6;
  partial.acc.Zero(12);
  partial.per_frame_leak_fraction.assign(6, 0.25);
  return partial;
}

class WriteFaultChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { faultinject::Clear(); }
};

TEST_F(WriteFaultChaosTest, TruncatedPartialSealIsNeverVisible) {
  const std::string path = testdir::TempPath("write_truncate.bbpr");
  ASSERT_TRUE(faultinject::Configure("write@0=truncate").ok());
  const Status saved = SavePartial(SmallPartial(), path);
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kIoError);
  // The half-written bytes stay in the .tmp sibling; the destination path
  // must not exist at all. attackd skips a shard only when its partial
  // path exists, and a resume polls the checkpoint path: a torn file
  // appearing here would be merged or resumed as if complete.
  EXPECT_FALSE(std::filesystem::exists(path)) << "truncated seal visible";

  // The next (un-faulted) seal lands normally and loads clean.
  faultinject::Clear();
  ASSERT_TRUE(SavePartial(SmallPartial(), path).ok());
  const auto loaded = LoadPartial(path);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
}

TEST_F(WriteFaultChaosTest, FailedCheckpointSealLeavesPriorGenerationIntact) {
  const std::string path = testdir::TempPath("write_fail.bbck");
  // Seal generation 1 clean, then fail generation 2's write outright.
  PartialResult checkpoint = SmallPartial();
  checkpoint.frames_done = 2;
  ASSERT_TRUE(SavePartial(checkpoint, path).ok());
  ASSERT_TRUE(faultinject::Configure("write@0=fail").ok());
  checkpoint.frames_done = 4;
  const Status saved = SavePartial(checkpoint, path);
  ASSERT_FALSE(saved.ok());

  // Generation 1 is still there, whole, and loads with its own contents.
  const auto loaded = LoadPartial(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->frames_done, 2);
}

TEST_F(WriteFaultChaosTest, CorruptPartialSealIsCaughtByTheLoader) {
  const std::string path = testdir::TempPath("write_corrupt.bbpr");
  ASSERT_TRUE(faultinject::Configure("write@0=corrupt").ok());
  // A corrupt seal "succeeds" at the I/O layer - the bytes land renamed -
  // so only the loader's checksum stands between the flip and a merge or
  // a resume.
  ASSERT_TRUE(SavePartial(SmallPartial(), path).ok());
  const auto loaded = LoadPartial(path);
  ASSERT_FALSE(loaded.ok()) << "loader trusted a corrupt seal";
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST_F(WriteFaultChaosTest, TruncatedCheckpointSealIsNeverVisible) {
  const SealFixture& f = SealFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  const ReconstructionResult baseline = UninterruptedRun(f, ref);
  const StreamingOptions opts =
      CheckpointOptions(testdir::TempPath("seal_truncate.bbck"));

  // Tear the second seal (after frame 10), then kill the worker at 12.
  ASSERT_TRUE(faultinject::Configure("write@1=truncate").ok());
  const StreamingStats killed = KilledRun(f, ref, opts, 12);
  EXPECT_EQ(killed.checkpoint_writes, 1u);
  EXPECT_EQ(killed.checkpoint_write_failures, 1u);
  faultinject::Clear();

  // The torn bytes never reached the checkpoint path: it still holds the
  // first generation, whole.
  const auto left = LoadPartial(opts.checkpoint_path);
  ASSERT_TRUE(left.ok()) << left.status().ToString();
  EXPECT_EQ(left->frames_done, 5);

  // The resume picks that generation up and reproduces the uninterrupted
  // run.
  auto seg = f.Oracle();
  StreamingReconstructor resumed(ref, *seg, opts);
  video::VideoStreamSource source(f.call.video);
  const auto run = resumed.Run(source);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(resumed.checkpoint_status().ok())
      << resumed.checkpoint_status().ToString();
  EXPECT_TRUE(resumed.stats().resumed);
  EXPECT_EQ(resumed.stats().resume_frames_done, 5);
  ExpectIdentical(*run, baseline, "resume past a torn seal");
}

TEST_F(WriteFaultChaosTest, CorruptCheckpointSealIsCaughtByTheLoader) {
  const SealFixture& f = SealFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  const ReconstructionResult baseline = UninterruptedRun(f, ref);
  const StreamingOptions opts =
      CheckpointOptions(testdir::TempPath("seal_corrupt.bbck"));

  // A corrupt seal succeeds at the I/O layer, so the worker counts it as
  // written and the flipped byte lands at the checkpoint path.
  ASSERT_TRUE(faultinject::Configure("write@1=corrupt").ok());
  const StreamingStats killed = KilledRun(f, ref, opts, 12);
  EXPECT_EQ(killed.checkpoint_writes, 2u);
  EXPECT_EQ(killed.checkpoint_write_failures, 0u);
  faultinject::Clear();

  // Only the loader's checksum stands between it and a resume: the run
  // keeps the DATA_LOSS reason, starts fresh, and matches the clean run.
  auto seg = f.Oracle();
  StreamingReconstructor resumed(ref, *seg, opts);
  video::VideoStreamSource source(f.call.video);
  const auto run = resumed.Run(source);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(resumed.stats().resumed);
  EXPECT_EQ(resumed.checkpoint_status().code(), StatusCode::kDataLoss)
      << resumed.checkpoint_status().ToString();
  ExpectIdentical(*run, baseline, "fresh run after a corrupt seal");
  EXPECT_FALSE(std::filesystem::exists(opts.checkpoint_path))
      << "a completed run supersedes its checkpoint";
}

TEST_F(WriteFaultChaosTest, FailingCheckpointSinkNeverFailsTheRun) {
  const SealFixture& f = SealFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  const ReconstructionResult baseline = UninterruptedRun(f, ref);
  const StreamingOptions opts =
      CheckpointOptions(testdir::TempPath("seal_fail.bbck"));

  // Every one of the four seals fails: the run loses its resumability,
  // counts each failure, and still finishes with the clean run's bits.
  ASSERT_TRUE(faultinject::Configure(
                  "write@0=fail,write@1=fail,write@2=fail,write@3=fail")
                  .ok());
  auto seg = f.Oracle();
  StreamingReconstructor streaming(ref, *seg, opts);
  video::VideoStreamSource source(f.call.video);
  const auto run = streaming.Run(source);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(streaming.stats().checkpoint_writes, 0u);
  EXPECT_EQ(streaming.stats().checkpoint_write_failures, 4u);
  ExpectIdentical(*run, baseline, "run with a failing checkpoint sink");
  EXPECT_FALSE(std::filesystem::exists(opts.checkpoint_path));
  EXPECT_FALSE(std::filesystem::exists(opts.checkpoint_path + ".tmp"));
}

}  // namespace
}  // namespace bb::core
