// Seeded chaos suite for the fault-tolerant streaming pipeline (ctest label
// "chaos"; see tests/CMakeLists.txt). Three contracts from DESIGN.md
// section 11 are exercised end to end:
//   * degradation: a run under an injected fault schedule quarantines the
//     bad frames and is bit-identical to a clean run over the survivors
//     (modeled by the manual PushBadFrame protocol), at any thread count
//     and window size;
//   * budgets: one quarantine past --max-bad-frames fails the run with a
//     structured kAborted, and randomized schedules never crash;
//   * checkpoint/resume: a killed run resumed from its checkpoint - even at
//     a different thread count, even with quarantined frames - reproduces
//     the uninterrupted output bit for bit, and hostile checkpoints fall
//     back to a fresh run with the reason preserved.
#include "core/streaming.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/faultinject.h"
#include "common/parallel.h"
#include "core/checkpoint.h"
#include "segmentation/segmenter.h"
#include "synth/recorder.h"
#include "vbg/compositor.h"
#include "video/frame_source.h"

namespace bb::core {
namespace {

using imaging::Image;

// A 64x48, 40-frame composited call with ground truth.
struct ChaosFixture {
  synth::RawRecording raw;
  vbg::CompositedCall call;
  Image vb_image;

  ChaosFixture() {
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

  static const ChaosFixture& Shared() {
    static const ChaosFixture f;
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
    const ChaosFixture& f) {
  return std::make_unique<segmentation::NoisyOracleSegmenter>(
      f.raw.caller_masks, segmentation::NoisyOracleParams{}, 7);
}

// "Clean run over the surviving frames": the full manual push protocol with
// the given frames reported bad up front - no fault registry involved, so
// this is the independent reference the injected runs must match.
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

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "bb_chaos_" + name;
}

// xorshift64: repeatable schedules without wall-clock entropy.
std::uint64_t Rng(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override {
    faultinject::Clear();
    common::SetThreadCount(0);
  }
};

TEST_F(ChaosTest, FaultyRunMatchesSurvivorReferenceAcrossThreadsAndWindows) {
  const ChaosFixture& f = ChaosFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  const std::vector<int> bad = {3, 17, 29};

  common::SetThreadCount(1);
  StreamingOptions ref_opts;
  ref_opts.window_frames = 10;
  auto ref_seg = MakeOracle(f);
  const ReconstructionResult baseline =
      ManualBadFrameReference(ref, f.call, bad, ref_opts, *ref_seg);

  for (int threads : {1, 2, 4, 8}) {
    common::SetThreadCount(threads);
    for (int window : {7, 10, 64}) {
      const Status armed = faultinject::Configure(
          "source@3=fail,source@17=corrupt,source@29=truncate");
      ASSERT_TRUE(armed.ok());
      auto seg = MakeOracle(f);
      StreamingOptions opts;
      opts.window_frames = window;
      StreamingReconstructor streaming(ref, *seg, opts);
      video::VideoStreamSource source(f.call.video);
      const auto run = streaming.Run(source);
      faultinject::Clear();
      const std::string what = "threads " + std::to_string(threads) +
                               " window " + std::to_string(window);
      ASSERT_TRUE(run.ok()) << what << ": " << run.status().ToString();
      ExpectIdentical(*run, baseline, what);
      EXPECT_EQ(streaming.stats().frames_quarantined, 3) << what;
      EXPECT_EQ(streaming.QuarantinedFrames(), bad) << what;
      EXPECT_TRUE(streaming.IsQuarantined(17)) << what;
      EXPECT_FALSE(streaming.IsQuarantined(16)) << what;
      // 2 passes for the analysis-free oracle, each re-pulling 3 bad frames.
      EXPECT_EQ(streaming.stats().bad_frame_events, 6u) << what;
    }
  }
}

TEST_F(ChaosTest, ClassicalSegmenterQuarantineMatchesSurvivorReference) {
  const ChaosFixture& f = ChaosFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  const std::vector<int> bad = {5, 21};
  common::SetThreadCount(2);

  StreamingOptions opts;
  opts.window_frames = 16;
  // Quarantine must also keep a segmenter with real analysis passes
  // consistent: the bad frames are excluded from its statistics too.
  segmentation::ClassicalSegmenter ref_seg;
  const ReconstructionResult baseline =
      ManualBadFrameReference(ref, f.call, bad, opts, ref_seg);

  ASSERT_TRUE(faultinject::Configure("source@5=fail,source@21=corrupt").ok());
  segmentation::ClassicalSegmenter seg;
  StreamingReconstructor streaming(ref, seg, opts);
  video::VideoStreamSource source(f.call.video);
  const auto run = streaming.Run(source);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ExpectIdentical(*run, baseline, "classical segmenter");
  // 2 analysis passes + caller + decomposition, 2 bad frames each.
  EXPECT_EQ(streaming.stats().bad_frame_events, 8u);
}

TEST_F(ChaosTest, BudgetAbortsOneQuarantinePastTheLimit) {
  const ChaosFixture& f = ChaosFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  const Status armed = faultinject::Configure(
      "source@3=fail,source@17=corrupt,source@29=truncate");
  ASSERT_TRUE(armed.ok());

  StreamingOptions opts;
  opts.window_frames = 10;
  opts.max_bad_frames = 2;  // 3 bad frames scheduled
  {
    auto seg = MakeOracle(f);
    StreamingReconstructor streaming(ref, *seg, opts);
    video::VideoStreamSource source(f.call.video);
    const auto run = streaming.Run(source);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kAborted);
    EXPECT_NE(run.status().message().find("bad-frame budget exceeded"),
              std::string::npos);
    // The abort reason carries the last frame error for diagnosis.
    EXPECT_NE(run.status().message().find("last error"), std::string::npos);
  }
  {
    opts.max_bad_frames = 3;  // exactly at the budget: degrade, don't abort
    auto seg = MakeOracle(f);
    StreamingReconstructor streaming(ref, *seg, opts);
    video::VideoStreamSource source(f.call.video);
    EXPECT_TRUE(streaming.Run(source).ok());
  }
}

TEST_F(ChaosTest, PercentBudgetScalesWithTheStream) {
  const ChaosFixture& f = ChaosFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  const Status armed = faultinject::Configure(
      "source@3=fail,source@17=corrupt,source@29=truncate");
  ASSERT_TRUE(armed.ok());

  StreamingOptions opts;
  opts.window_frames = 10;
  opts.max_bad_fraction = 0.05;  // 5% of 40 frames = 2 < 3 scheduled
  {
    auto seg = MakeOracle(f);
    StreamingReconstructor streaming(ref, *seg, opts);
    video::VideoStreamSource source(f.call.video);
    const auto run = streaming.Run(source);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kAborted);
  }
  {
    opts.max_bad_fraction = 0.10;  // 10% of 40 = 4 >= 3 scheduled
    auto seg = MakeOracle(f);
    StreamingReconstructor streaming(ref, *seg, opts);
    video::VideoStreamSource source(f.call.video);
    EXPECT_TRUE(streaming.Run(source).ok());
  }
}

TEST_F(ChaosTest, AllocFaultSurfacesAsResourceExhausted) {
  const ChaosFixture& f = ChaosFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  ASSERT_TRUE(faultinject::Configure("alloc@0=fail").ok());
  auto seg = MakeOracle(f);
  StreamingOptions opts;
  opts.window_frames = 10;
  StreamingReconstructor streaming(ref, *seg, opts);
  video::VideoStreamSource source(f.call.video);
  const auto run = streaming.Run(source);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ChaosTest, RandomizedSchedulesDegradeAndNeverCrash) {
  const ChaosFixture& f = ChaosFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  const int frames = f.call.video.frame_count();
  const char* kinds[] = {"fail", "truncate", "corrupt"};

  std::uint64_t seed = 0xC4A05BADULL;
  for (int iter = 0; iter < 6; ++iter) {
    // 1..5 distinct bad frames with random kinds.
    std::vector<int> bad;
    const int want = 1 + static_cast<int>(Rng(seed) % 5);
    while (static_cast<int>(bad.size()) < want) {
      const int i = static_cast<int>(Rng(seed) % frames);
      if (std::find(bad.begin(), bad.end(), i) == bad.end()) bad.push_back(i);
    }
    std::sort(bad.begin(), bad.end());
    std::string spec;
    for (int i : bad) {
      if (!spec.empty()) spec += ',';
      spec += "source@" + std::to_string(i) + '=' + kinds[Rng(seed) % 3];
    }
    common::SetThreadCount(1 + static_cast<int>(Rng(seed) % 4));
    const int window = 5 + static_cast<int>(Rng(seed) % 60);

    StreamingOptions opts;
    opts.window_frames = window;
    common::SetThreadCount(1);
    auto ref_seg = MakeOracle(f);
    faultinject::Clear();
    const ReconstructionResult expected =
        ManualBadFrameReference(ref, f.call, bad, opts, *ref_seg);

    ASSERT_TRUE(faultinject::Configure(spec).ok()) << spec;
    auto seg = MakeOracle(f);
    StreamingReconstructor streaming(ref, *seg, opts);
    video::VideoStreamSource source(f.call.video);
    const auto run = streaming.Run(source);
    faultinject::Clear();
    ASSERT_TRUE(run.ok()) << spec << ": " << run.status().ToString();
    EXPECT_EQ(streaming.QuarantinedFrames(), bad) << spec;
    ExpectIdentical(*run, expected, spec);
  }
}

TEST_F(ChaosTest, KillAndResumeReproducesTheUninterruptedRun) {
  const ChaosFixture& f = ChaosFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  const std::string path = TestPath("resume.bbck");
  std::remove(path.c_str());

  common::SetThreadCount(1);
  StreamingOptions clean_opts;
  clean_opts.window_frames = 10;
  auto base_seg = MakeOracle(f);
  StreamingReconstructor clean(ref, *base_seg, clean_opts);
  video::VideoStreamSource clean_source(f.call.video);
  const ReconstructionResult baseline = clean.Run(clean_source).value();

  StreamingOptions opts = clean_opts;
  opts.checkpoint_path = path;
  {
    // "Kill" mid-decomposition: drive the manual protocol through the
    // caller pass, then 25 of 40 frames of the final pass (two window
    // flushes = two checkpoint writes), and abandon the instance.
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
    for (int i = 0; i < 25; ++i) {
      interrupted.PushFrame(f.call.video.frame(i), i);
    }
    EXPECT_EQ(interrupted.stats().checkpoint_writes, 2u);
  }
  {
    std::ifstream left_behind(path, std::ios::binary);
    ASSERT_TRUE(left_behind.good()) << "interrupt must leave a checkpoint";
  }

  // Resume at a different thread count: the resume base joins the exact
  // integer-valued reduction, so the bits must still match.
  common::SetThreadCount(4);
  auto seg = MakeOracle(f);
  StreamingReconstructor resumed(ref, *seg, opts);
  video::VideoStreamSource source(f.call.video);
  const auto run = resumed.Run(source);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(resumed.checkpoint_status().ok());
  EXPECT_TRUE(resumed.stats().resumed);
  EXPECT_EQ(resumed.stats().resume_frames_done, 20);
  ExpectIdentical(*run, baseline, "kill-and-resume");

  // A completed run supersedes its checkpoint.
  std::ifstream gone(path, std::ios::binary);
  EXPECT_FALSE(gone.good());
}

// Hides the seek capability of an inner source, so the legacy
// pull-and-discard resume path stays pinned now that both the in-memory
// source and indexed .bbv files fast-forward via Seek().
class NoSeekSource final : public video::FrameSource {
 public:
  explicit NoSeekSource(video::FrameSource& inner) : inner_(&inner) {}
  video::StreamInfo info() const override { return inner_->info(); }

 protected:
  video::FramePull DoPull(imaging::Image& frame) override {
    return inner_->Pull(frame);
  }
  void DoReset() override { inner_->Reset(); }

 private:
  video::FrameSource* inner_;
};

TEST_F(ChaosTest, ResumeIsIdenticalWithAndWithoutSeekFastForward) {
  const ChaosFixture& f = ChaosFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);

  common::SetThreadCount(1);
  StreamingOptions clean_opts;
  clean_opts.window_frames = 10;
  auto base_seg = MakeOracle(f);
  StreamingReconstructor clean(ref, *base_seg, clean_opts);
  video::VideoStreamSource clean_source(f.call.video);
  const ReconstructionResult baseline = clean.Run(clean_source).value();

  for (const bool seekable : {true, false}) {
    const std::string what =
        seekable ? "seek fast-forward resume" : "pull-and-discard resume";
    const std::string path =
        TestPath(seekable ? "resume_seek.bbck" : "resume_noseek.bbck");
    std::remove(path.c_str());
    StreamingOptions opts = clean_opts;
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
      for (int i = 0; i < 25; ++i) {
        interrupted.PushFrame(f.call.video.frame(i), i);
      }
    }

    auto seg = MakeOracle(f);
    StreamingReconstructor resumed(ref, *seg, opts);
    video::VideoStreamSource inner(f.call.video);
    NoSeekSource hidden(inner);
    video::FrameSource& source =
        seekable ? static_cast<video::FrameSource&>(inner)
                 : static_cast<video::FrameSource&>(hidden);
    EXPECT_EQ(source.CanSeek(), seekable);
    const auto run = resumed.Run(source);
    ASSERT_TRUE(run.ok()) << what << ": " << run.status().ToString();
    EXPECT_TRUE(resumed.stats().resumed) << what;
    EXPECT_EQ(resumed.stats().resume_frames_done, 20) << what;
    ExpectIdentical(*run, baseline, what);
  }
}

TEST_F(ChaosTest, ResumeCarriesTheQuarantineAndHonorsTheBudget) {
  const ChaosFixture& f = ChaosFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  const std::vector<int> bad = {3, 17};
  const std::string path = TestPath("resume_quarantine.bbck");
  std::remove(path.c_str());

  common::SetThreadCount(1);
  StreamingOptions base_opts;
  base_opts.window_frames = 10;
  auto base_seg = MakeOracle(f);
  const ReconstructionResult baseline =
      ManualBadFrameReference(ref, f.call, bad, base_opts, *base_seg);

  StreamingOptions opts = base_opts;
  opts.checkpoint_path = path;
  {
    auto seg = MakeOracle(f);
    StreamingReconstructor interrupted(ref, *seg, opts);
    video::VideoStreamSource source(f.call.video);
    interrupted.Begin(source.info());
    const Status reason(StatusCode::kDataLoss, "unreadable frame (chaos)");
    interrupted.BeginPass(0);
    for (int i = 0; i < f.call.video.frame_count(); ++i) {
      if (std::find(bad.begin(), bad.end(), i) != bad.end()) {
        ASSERT_TRUE(interrupted.PushBadFrame(i, reason).ok());
      } else {
        interrupted.PushFrame(f.call.video.frame(i), i);
      }
    }
    interrupted.EndPass(0);
    interrupted.BeginPass(1);
    for (int i = 0; i < 25; ++i) {
      if (std::find(bad.begin(), bad.end(), i) != bad.end()) {
        ASSERT_TRUE(interrupted.PushBadFrame(i, reason).ok());
      } else {
        interrupted.PushFrame(f.call.video.frame(i), i);
      }
    }
    EXPECT_GE(interrupted.stats().checkpoint_writes, 1u);
  }

  {
    // A budget tighter than the persisted quarantine fails the resumed run
    // before any pull, with a structured reason.
    StreamingOptions tight = opts;
    tight.max_bad_frames = 1;
    auto seg = MakeOracle(f);
    StreamingReconstructor over_budget(ref, *seg, tight);
    video::VideoStreamSource source(f.call.video);
    const auto run = over_budget.Run(source);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kAborted);
    EXPECT_NE(run.status().message().find("before any pull"),
              std::string::npos);
  }

  // The real resume: the same frames keep failing (schedule-driven faults
  // fire on every pass), the persisted quarantine matches, and the output
  // equals the uninterrupted degraded run.
  ASSERT_TRUE(faultinject::Configure("source@3=fail,source@17=corrupt").ok());
  auto seg = MakeOracle(f);
  StreamingReconstructor resumed(ref, *seg, opts);
  video::VideoStreamSource source(f.call.video);
  const auto run = resumed.Run(source);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(resumed.stats().resumed);
  EXPECT_EQ(resumed.QuarantinedFrames(), bad);
  ExpectIdentical(*run, baseline, "quarantined resume");
  std::remove(path.c_str());
}

// A checkpoint carries ConfigHash(recon, config_salt): a rerun with
// another phi, or against another VB reference (the salt), must start
// fresh instead of blending the old run's accumulators into its own.
TEST_F(ChaosTest, ResumeRefusesAnotherConfiguration) {
  const ChaosFixture& f = ChaosFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  const std::string path = TestPath("reconfigured.bbck");
  common::SetThreadCount(1);

  StreamingOptions written;
  written.window_frames = 10;
  written.checkpoint_path = path;
  written.recon.phi = 20.0;
  written.config_salt = 11;

  StreamingOptions other_phi = written;
  other_phi.recon.phi = 4.0;
  StreamingOptions other_salt = written;
  other_salt.config_salt = 12;

  for (const auto& [what, rerun] :
       {std::pair<std::string, StreamingOptions>{"phi", other_phi},
        std::pair<std::string, StreamingOptions>{"salt", other_salt}}) {
    std::remove(path.c_str());
    StreamingOptions clean_opts = rerun;
    clean_opts.checkpoint_path.clear();
    auto base_seg = MakeOracle(f);
    StreamingReconstructor clean(ref, *base_seg, clean_opts);
    video::VideoStreamSource clean_source(f.call.video);
    const ReconstructionResult baseline = clean.Run(clean_source).value();
    {
      // Interrupt a run with the written configuration after two window
      // flushes of its decomposition pass.
      auto seg = MakeOracle(f);
      StreamingReconstructor interrupted(ref, *seg, written);
      video::VideoStreamSource source(f.call.video);
      interrupted.Begin(source.info());
      interrupted.BeginPass(0);
      for (int i = 0; i < f.call.video.frame_count(); ++i) {
        interrupted.PushFrame(f.call.video.frame(i), i);
      }
      interrupted.EndPass(0);
      interrupted.BeginPass(1);
      for (int i = 0; i < 25; ++i) {
        interrupted.PushFrame(f.call.video.frame(i), i);
      }
      ASSERT_EQ(interrupted.stats().checkpoint_writes, 2u) << what;
    }
    auto seg = MakeOracle(f);
    StreamingReconstructor resumed(ref, *seg, rerun);
    video::VideoStreamSource source(f.call.video);
    const auto run = resumed.Run(source);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_FALSE(resumed.stats().resumed) << what;
    EXPECT_EQ(resumed.checkpoint_status().code(),
              StatusCode::kFailedPrecondition)
        << what;
    EXPECT_NE(resumed.checkpoint_status().message().find(
                  "different reconstruction configuration"),
              std::string::npos)
        << resumed.checkpoint_status().ToString();
    ExpectIdentical(*run, baseline, what);
  }
  std::remove(path.c_str());
}

TEST_F(ChaosTest, HostileCheckpointFallsBackToAFreshRun) {
  const ChaosFixture& f = ChaosFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  const std::string path = TestPath("hostile.bbck");

  common::SetThreadCount(1);
  StreamingOptions clean_opts;
  clean_opts.window_frames = 10;
  auto base_seg = MakeOracle(f);
  StreamingReconstructor clean(ref, *base_seg, clean_opts);
  video::VideoStreamSource clean_source(f.call.video);
  const ReconstructionResult baseline = clean.Run(clean_source).value();

  StreamingOptions opts = clean_opts;
  opts.checkpoint_path = path;
  {
    // Corrupt bytes at the checkpoint path: structured DATA_LOSS reason,
    // fresh run, bit-identical output.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "BBCKnot really a checkpoint";
  }
  {
    auto seg = MakeOracle(f);
    StreamingReconstructor streaming(ref, *seg, opts);
    video::VideoStreamSource source(f.call.video);
    const auto run = streaming.Run(source);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_FALSE(streaming.stats().resumed);
    EXPECT_EQ(streaming.checkpoint_status().code(), StatusCode::kDataLoss);
    ExpectIdentical(*run, baseline, "corrupt checkpoint");
  }

  {
    // A valid checkpoint for a *different* stream: rejected by the identity
    // check, again with the reason preserved.
    CheckpointState other;
    other.info = video::StreamInfo{8, 8, 5, 10.0};
    other.frames_done = 2;
    other.shard_begin = 0;
    other.shard_end = 5;
    other.acc.Zero(64);
    other.per_frame_leak_fraction.assign(5, 0.0);
    ASSERT_TRUE(SaveCheckpoint(other, path).ok());
  }
  {
    auto seg = MakeOracle(f);
    StreamingReconstructor streaming(ref, *seg, opts);
    video::VideoStreamSource source(f.call.video);
    const auto run = streaming.Run(source);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_FALSE(streaming.stats().resumed);
    EXPECT_EQ(streaming.checkpoint_status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_NE(
        streaming.checkpoint_status().message().find("different stream"),
        std::string::npos);
    ExpectIdentical(*run, baseline, "mismatched checkpoint");
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bb::core
