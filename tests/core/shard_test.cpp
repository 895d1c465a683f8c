// Shard-equivalence matrix for the map-reduce reconstruction path
// (DESIGN.md section 14). The contract under test: K shard workers, each
// decomposing only its slice [frames*i/K, frames*(i+1)/K), emit sealed
// BBPR partials that core/reduce.h folds into output *bit-identical* to a
// single uninterrupted run - at any shard count, thread count, or window
// size, with partials merged in any arrival order. The BBPR file itself -
// a finished partial, or a checkpoint short of its range end - is
// attacker-adjacent state on disk, so the one hostile-loading corpus is
// pinned here too: every truncation/bit-flip/reseal rejects with a
// structured error naming the offending byte range, and the reducer
// refuses unfinished, overlapping, missing, or config-mismatched partials
// before touching an accumulator.
#include "core/streaming.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../common/temp_dir.h"
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

// A 64x48, 40-frame composited call with ground truth (same shape as the
// chaos suite fixture so the two suites exercise one scenario family).
struct ShardFixture {
  synth::RawRecording raw;
  vbg::CompositedCall call;
  Image vb_image;

  ShardFixture() {
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

  static const ShardFixture& Shared() {
    static const ShardFixture f;
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
    const ShardFixture& f) {
  return std::make_unique<segmentation::NoisyOracleSegmenter>(
      f.raw.caller_masks, segmentation::NoisyOracleParams{}, 7);
}

// One shard worker end to end: RunPartial over a fresh source.
Result<PartialResult> RunShard(const VbReference& ref,
                               segmentation::PersonSegmenter& seg,
                               const vbg::CompositedCall& call,
                               StreamingOptions opts, int index, int count) {
  opts.shard_index = index;
  opts.shard_count = count;
  StreamingReconstructor worker(ref, seg, opts);
  video::VideoStreamSource source(call.video);
  return worker.RunPartial(source);
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good()) << path;
}

// Same FNV-1a as the writer, reimplemented here so hostile-input tests can
// re-seal a tampered body behind a *valid* checksum and reach the parser.
std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string Reseal(std::string body) {
  const std::uint64_t sum = Fnv1a64(body);
  for (int shift = 0; shift < 64; shift += 8) {
    body.push_back(static_cast<char>((sum >> shift) & 0xFF));
  }
  return body;
}

// xorshift64: repeatable shuffles without wall-clock entropy.
std::uint64_t Rng(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

class ShardTest : public ::testing::Test {
 protected:
  void TearDown() override { common::SetThreadCount(0); }
};

// ---------------------------------------------------------------------------
// The equivalence matrix: shards x threads x windows x segmenter, every cell
// bit-identical to the single-process golden run.
// ---------------------------------------------------------------------------

TEST_F(ShardTest, MatrixIsBitIdenticalToTheSingleProcessGolden) {
  const ShardFixture& f = ShardFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  const int frames = f.call.video.frame_count();

  for (const bool oracle : {true, false}) {
    const std::string seg_name = oracle ? "oracle" : "classical";
    auto make_seg = [&]() -> std::unique_ptr<segmentation::PersonSegmenter> {
      if (oracle) return MakeOracle(f);
      return std::make_unique<segmentation::ClassicalSegmenter>();
    };

    common::SetThreadCount(1);
    StreamingOptions golden_opts;
    golden_opts.window_frames = 10;
    auto golden_seg = make_seg();
    StreamingReconstructor single(ref, *golden_seg, golden_opts);
    video::VideoStreamSource golden_source(f.call.video);
    const ReconstructionResult golden = single.Run(golden_source).value();

    for (int shards : {1, 2, 3, 7}) {
      for (int threads : {1, 4, 8}) {
        for (int window : {10, 64}) {
          const std::string what = seg_name + " shards " +
                                   std::to_string(shards) + " threads " +
                                   std::to_string(threads) + " window " +
                                   std::to_string(window);
          common::SetThreadCount(threads);
          StreamingOptions opts;
          opts.window_frames = window;
          std::vector<PartialResult> partials;
          for (int i = 0; i < shards; ++i) {
            auto seg = make_seg();
            auto partial = RunShard(ref, *seg, f.call, opts, i, shards);
            ASSERT_TRUE(partial.ok())
                << what << ": " << partial.status().ToString();
            // The slice boundaries are pinned: frames*i/N, half-open.
            EXPECT_EQ(partial->range_begin,
                      static_cast<int>(static_cast<std::int64_t>(frames) *
                                       i / shards))
                << what;
            partials.push_back(std::move(*partial));
          }
          ReduceStats stats;
          const auto merged = ReducePartials(std::move(partials), &stats);
          ASSERT_TRUE(merged.ok())
              << what << ": " << merged.status().ToString();
          ExpectIdentical(*merged, golden, what);
          EXPECT_EQ(stats.partials_merged, shards) << what;
          EXPECT_EQ(stats.frames_covered, frames) << what;
          EXPECT_EQ(stats.quarantined, 0) << what;
        }
      }
    }
  }
}

TEST_F(ShardTest, MergeIsArrivalOrderInvariant) {
  const ShardFixture& f = ShardFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  common::SetThreadCount(2);
  StreamingOptions opts;
  opts.window_frames = 10;

  std::vector<PartialResult> partials;
  for (int i = 0; i < 7; ++i) {
    auto seg = MakeOracle(f);
    partials.push_back(RunShard(ref, *seg, f.call, opts, i, 7).value());
  }
  const ReconstructionResult expected =
      ReducePartials(partials).value();  // in-range-order arrival

  // Reversed, rotated, and seeded-shuffled arrival orders all reduce to the
  // same bits: the reducer re-establishes range order internally.
  std::uint64_t seed = 0x5BA2DULL;
  for (int variant = 0; variant < 6; ++variant) {
    std::vector<PartialResult> arrival = partials;
    std::string what = "arrival variant " + std::to_string(variant);
    if (variant == 0) {
      std::reverse(arrival.begin(), arrival.end());
    } else if (variant == 1) {
      std::rotate(arrival.begin(), arrival.begin() + 3, arrival.end());
    } else {
      for (std::size_t i = arrival.size() - 1; i > 0; --i) {
        std::swap(arrival[i], arrival[Rng(seed) % (i + 1)]);
      }
    }
    const auto merged = ReducePartials(std::move(arrival));
    ASSERT_TRUE(merged.ok()) << what << ": " << merged.status().ToString();
    ExpectIdentical(*merged, expected, what);
  }
}

// ---------------------------------------------------------------------------
// Satellite 4 regression: the decomposition fast-forward is one unified
// range-start path, and a zero-frame prefix must never touch Seek - a shard
// starting at frame 0 of a non-seekable stream runs via linear skip.
// ---------------------------------------------------------------------------

// Hides the seek capability of an inner source (mirrors the chaos suite's
// pin of the pull-and-discard resume path).
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

TEST_F(ShardTest, NonSeekableStreamFallsBackToLinearSkip) {
  const ShardFixture& f = ShardFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  common::SetThreadCount(1);
  StreamingOptions base;
  base.window_frames = 10;

  auto golden_seg = MakeOracle(f);
  StreamingReconstructor single(ref, *golden_seg, base);
  video::VideoStreamSource golden_source(f.call.video);
  const ReconstructionResult golden = single.Run(golden_source).value();

  for (const bool seekable : {true, false}) {
    const std::string how = seekable ? "seek fast-forward" : "linear skip";
    std::vector<PartialResult> partials;
    for (int i = 0; i < 3; ++i) {
      StreamingOptions opts = base;
      opts.shard_index = i;
      opts.shard_count = 3;
      auto seg = MakeOracle(f);
      StreamingReconstructor worker(ref, *seg, opts);
      video::VideoStreamSource inner(f.call.video);
      NoSeekSource hidden(inner);
      video::FrameSource& source =
          seekable ? static_cast<video::FrameSource&>(inner)
                   : static_cast<video::FrameSource&>(hidden);
      EXPECT_EQ(source.CanSeek(), seekable);
      const auto partial = worker.RunPartial(source);
      // Shard 0 has an empty prefix; before the range-start paths were
      // unified it would try to Seek(0) and fail on a non-seekable stream.
      ASSERT_TRUE(partial.ok()) << how << " shard " << i << ": "
                                << partial.status().ToString();
      EXPECT_EQ(worker.stats().shard_range_begin, partial->range_begin);
      EXPECT_EQ(worker.stats().shard_range_end, partial->range_end);
      partials.push_back(std::move(*partial));
    }
    const auto merged = ReducePartials(std::move(partials));
    ASSERT_TRUE(merged.ok()) << how << ": " << merged.status().ToString();
    ExpectIdentical(*merged, golden, how);
  }
}

TEST_F(ShardTest, SeekAndLinearSkipSealIdenticalPartialBytes) {
  const ShardFixture& f = ShardFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  common::SetThreadCount(1);
  StreamingOptions opts;
  opts.window_frames = 10;
  opts.shard_index = 1;
  opts.shard_count = 3;

  std::vector<std::string> paths;
  for (const bool seekable : {true, false}) {
    auto seg = MakeOracle(f);
    StreamingReconstructor worker(ref, *seg, opts);
    video::VideoStreamSource inner(f.call.video);
    NoSeekSource hidden(inner);
    video::FrameSource& source =
        seekable ? static_cast<video::FrameSource&>(inner)
                 : static_cast<video::FrameSource&>(hidden);
    const auto partial = worker.RunPartial(source);
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    const std::string path =
        testdir::TempPath(seekable ? "seek.bbpr" : "noseek.bbpr");
    std::remove(path.c_str());
    ASSERT_TRUE(SavePartial(*partial, path).ok());
    paths.push_back(path);
  }
  // Not just equivalent - the sealed files are the same bytes, so the skip
  // strategy can never leak into a merge.
  EXPECT_EQ(ReadFile(paths[0]), ReadFile(paths[1]));
  for (const std::string& p : paths) std::remove(p.c_str());
}

// ---------------------------------------------------------------------------
// Shard-mode API misuse is refused up front.
// ---------------------------------------------------------------------------

TEST_F(ShardTest, InvalidShardSpecThrows) {
  const ShardFixture& f = ShardFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  auto seg = MakeOracle(f);
  StreamingOptions opts;
  opts.shard_index = 2;
  opts.shard_count = 2;  // index out of [0, count)
  EXPECT_THROW(StreamingReconstructor(ref, *seg, opts), std::invalid_argument);
  opts.shard_index = -1;
  EXPECT_THROW(StreamingReconstructor(ref, *seg, opts), std::invalid_argument);
  opts.shard_index = 0;
  opts.recon.keep_frame_masks = true;  // per-frame masks are not mergeable
  EXPECT_THROW(StreamingReconstructor(ref, *seg, opts), std::invalid_argument);
}

TEST_F(ShardTest, RunIsRefusedInShardMode) {
  const ShardFixture& f = ShardFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  auto seg = MakeOracle(f);
  StreamingOptions opts;
  opts.shard_index = 0;
  opts.shard_count = 2;
  StreamingReconstructor worker(ref, *seg, opts);
  video::VideoStreamSource source(f.call.video);
  const auto run = worker.Run(source);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(run.status().message().find("use RunPartial()"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// BBPR on-disk contract: round trip, then hostile loading with pinned byte
// ranges.
// ---------------------------------------------------------------------------

PartialResult SamplePartial() {
  PartialResult p;
  p.info.width = 4;
  p.info.height = 3;
  p.info.frame_count = 10;
  p.info.fps = 12.5;
  p.config_hash = 0x1234ABCDULL;
  p.range_begin = 2;
  p.range_end = 7;
  // Short of range_end: a checkpoint, which loads like a finished partial.
  p.frames_done = 5;
  p.bad_budget = 3;
  p.min_leak_count = 2;
  p.max_color_spread = 48.0;
  p.bad_frame_events = 5;
  p.quarantined = {1, 6};
  const std::size_t pixels = 4 * 3;
  p.acc.Zero(pixels);
  for (std::size_t i = 0; i < pixels; ++i) {
    p.acc.counts[i] = static_cast<int>(i % 5);
    p.acc.sum_r[i] = static_cast<double>(i);
    p.acc.sum_g[i] = static_cast<double>(2 * i);
    p.acc.sum_b[i] = static_cast<double>(3 * i);
    p.acc.sum_r2[i] = static_cast<double>(i * i);
    p.acc.sum_g2[i] = static_cast<double>(i * i + 1);
    p.acc.sum_b2[i] = static_cast<double>(i * i + 2);
  }
  for (int i = p.range_begin; i < p.range_end; ++i) {
    p.per_frame_leak_fraction.push_back(i * 0.015625);  // exact in f64
  }
  return p;
}

TEST_F(ShardTest, PartialRoundTripsEveryField) {
  const std::string path = testdir::TempPath("roundtrip.bbpr");
  const PartialResult saved = SamplePartial();
  ASSERT_TRUE(SavePartial(saved, path).ok());
  {
    std::ifstream tmp(path + ".tmp", std::ios::binary);
    EXPECT_FALSE(tmp.good()) << "temp file must be renamed into place";
  }

  const auto loaded = LoadPartial(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->info.width, saved.info.width);
  EXPECT_EQ(loaded->info.height, saved.info.height);
  EXPECT_EQ(loaded->info.frame_count, saved.info.frame_count);
  EXPECT_DOUBLE_EQ(loaded->info.fps, saved.info.fps);
  EXPECT_EQ(loaded->config_hash, saved.config_hash);
  EXPECT_EQ(loaded->range_begin, saved.range_begin);
  EXPECT_EQ(loaded->range_end, saved.range_end);
  EXPECT_EQ(loaded->frames_done, saved.frames_done);
  EXPECT_EQ(loaded->bad_budget, saved.bad_budget);
  EXPECT_EQ(loaded->min_leak_count, saved.min_leak_count);
  EXPECT_DOUBLE_EQ(loaded->max_color_spread, saved.max_color_spread);
  EXPECT_EQ(loaded->bad_frame_events, saved.bad_frame_events);
  EXPECT_EQ(loaded->quarantined, saved.quarantined);
  EXPECT_EQ(loaded->acc.counts, saved.acc.counts);
  EXPECT_EQ(loaded->acc.sum_r, saved.acc.sum_r);
  EXPECT_EQ(loaded->acc.sum_g, saved.acc.sum_g);
  EXPECT_EQ(loaded->acc.sum_b, saved.acc.sum_b);
  EXPECT_EQ(loaded->acc.sum_r2, saved.acc.sum_r2);
  EXPECT_EQ(loaded->acc.sum_g2, saved.acc.sum_g2);
  EXPECT_EQ(loaded->acc.sum_b2, saved.acc.sum_b2);
  EXPECT_EQ(loaded->per_frame_leak_fraction, saved.per_frame_leak_fraction);
  std::remove(path.c_str());
}

TEST_F(ShardTest, UnlimitedBudgetRoundTripsAsMinusOne) {
  const std::string path = testdir::TempPath("budget.bbpr");
  PartialResult saved = SamplePartial();
  saved.bad_budget = -1;  // 0xFFFFFFFF on the wire
  ASSERT_TRUE(SavePartial(saved, path).ok());
  const auto loaded = LoadPartial(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->bad_budget, -1);
  std::remove(path.c_str());
}

TEST_F(ShardTest, MissingPartialIsNotFound) {
  const auto loaded = LoadPartial(testdir::TempPath("never_written.bbpr"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_NE(loaded.status().message().find("never_written"),
            std::string::npos);
}

TEST_F(ShardTest, EveryTruncationIsStructuredDataLoss) {
  const std::string path = testdir::TempPath("truncate.bbpr");
  ASSERT_TRUE(SavePartial(SamplePartial(), path).ok());
  const std::string full = ReadFile(path);
  ASSERT_GT(full.size(), 88u);
  for (std::size_t len = 0; len < full.size();
       len += (len < 96 ? 1 : 89)) {
    WriteFile(path, full.substr(0, len));
    const auto loaded = LoadPartial(path);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << len;
  }
  std::remove(path.c_str());
}

TEST_F(ShardTest, AnySingleBitFlipIsCaughtByTheChecksum) {
  const std::string path = testdir::TempPath("bitflip.bbpr");
  ASSERT_TRUE(SavePartial(SamplePartial(), path).ok());
  const std::string full = ReadFile(path);
  for (std::size_t pos = 0; pos < full.size(); pos += 53) {
    std::string mutated = full;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x10);
    WriteFile(path, mutated);
    const auto loaded = LoadPartial(path);
    ASSERT_FALSE(loaded.ok()) << "bit flip at byte " << pos << " loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << pos;
  }
  std::remove(path.c_str());
}

TEST_F(ShardTest, BadMagicNamesItsByteRange) {
  const std::string path = testdir::TempPath("magic.bbpr");
  WriteFile(path, Reseal("XXPR then some bytes that do not matter"));
  const auto loaded = LoadPartial(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("bad magic at bytes 0-3"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ShardTest, VersionMismatchIsFailedPrecondition) {
  const std::string path = testdir::TempPath("version.bbpr");
  ASSERT_TRUE(SavePartial(SamplePartial(), path).ok());
  std::string body = ReadFile(path);
  body.resize(body.size() - 8);  // drop the old checksum
  // Version u32 little-endian at bytes 4..7: a v1 file (no frames_done)
  // from an older build and a future v9 are both refused.
  for (const int version : {1, 9}) {
    body[4] = static_cast<char>(version);
    WriteFile(path, Reseal(body));
    const auto loaded = LoadPartial(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(loaded.status().message().find(
                  "unsupported partial version " + std::to_string(version) +
                  " (want 2) at bytes 4-7"),
              std::string::npos)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST_F(ShardTest, RetiredCheckpointMagicIsFailedPrecondition) {
  const std::string path = testdir::TempPath("retired.bbck");
  // An older build's BBCK checkpoint is not corruption: the refusal says
  // what it is, so a resume starts fresh behind a clear reason.
  WriteFile(path, Reseal("BBCK then some bytes that do not matter"));
  const auto loaded = LoadPartial(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.status().message().find(
                "checkpoint in the retired BBCK format of an older build at "
                "bytes 0-3"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST_F(ShardTest, ResealedImplausibleRangeNamesItsBytes) {
  const std::string path = testdir::TempPath("range.bbpr");
  ASSERT_TRUE(SavePartial(SamplePartial(), path).ok());
  std::string body = ReadFile(path);
  body.resize(body.size() - 8);
  // range_begin (bytes 32..35) far beyond range_end: a valid checksum must
  // not make a lying frame range loadable.
  body[32] = static_cast<char>(0xFF);
  WriteFile(path, Reseal(body));
  const auto loaded = LoadPartial(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("implausible frame range"),
            std::string::npos);
  EXPECT_NE(loaded.status().message().find("at bytes 32-39"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ShardTest, ResealedFramesDoneOutsideTheRangeRejects) {
  const std::string path = testdir::TempPath("frames_done.bbpr");
  ASSERT_TRUE(SavePartial(SamplePartial(), path).ok());
  std::string body = ReadFile(path);
  body.resize(body.size() - 8);
  // frames_done (bytes 64..67) past range_end, then below range_begin: a
  // valid checksum must not let a lying cursor resume past the range (with
  // nothing left to decompose) or before it.
  for (const int frames_done : {8, 1}) {
    body[64] = static_cast<char>(frames_done);
    WriteFile(path, Reseal(body));
    const auto loaded = LoadPartial(path);
    ASSERT_FALSE(loaded.ok()) << frames_done;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(loaded.status().message().find(
                  "implausible frames_done " + std::to_string(frames_done) +
                  " outside the frame range [2, 7] at bytes 64-67"),
              std::string::npos)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST_F(ShardTest, FramesDoneAtEitherEndOfTheRangeLoads) {
  const std::string path = testdir::TempPath("frames_done_ends.bbpr");
  // [range_begin, range_end] is closed: a checkpoint that has decomposed
  // none of [2, 7) yet and a finished partial of it both load.
  for (const int frames_done : {2, 7}) {
    PartialResult saved = SamplePartial();
    saved.frames_done = frames_done;
    ASSERT_TRUE(SavePartial(saved, path).ok());
    const auto loaded = LoadPartial(path);
    ASSERT_TRUE(loaded.ok()) << frames_done << ": "
                             << loaded.status().ToString();
    EXPECT_EQ(loaded->frames_done, frames_done);
  }
  std::remove(path.c_str());
}

TEST_F(ShardTest, ResealedLeakCountBeyondTheRangeRejects) {
  const std::string path = testdir::TempPath("counts.bbpr");
  const PartialResult saved = SamplePartial();
  ASSERT_TRUE(SavePartial(saved, path).ok());
  std::string body = ReadFile(path);
  body.resize(body.size() - 8);
  // counts[0] is a u64 right after the 72-byte header, the quarantine list
  // (2 entries), and the pixels u64; force it past the 5-frame range.
  const std::size_t counts_at =
      72 + saved.quarantined.size() * 4 + 8;
  body[counts_at] = static_cast<char>(0xFF);
  WriteFile(path, Reseal(body));
  const auto loaded = LoadPartial(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find(
                "leak count exceeds the shard's frame range"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ShardTest, ResealedUnsortedQuarantineRejects) {
  const std::string path = testdir::TempPath("quarantine.bbpr");
  ASSERT_TRUE(SavePartial(SamplePartial(), path).ok());
  std::string body = ReadFile(path);
  body.resize(body.size() - 8);
  // Swap the two quarantine entries ({1, 6} -> {6, 1}): the list must be
  // ascending so the reducer's union walk stays linear.
  std::swap(body[72], body[76]);
  WriteFile(path, Reseal(body));
  const auto loaded = LoadPartial(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find(
                "quarantine list not ascending in-range"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ShardTest, ResealedTrailingBytesReject) {
  const std::string path = testdir::TempPath("trailing.bbpr");
  ASSERT_TRUE(SavePartial(SamplePartial(), path).ok());
  std::string body = ReadFile(path);
  body.resize(body.size() - 8);
  body += "extra";
  WriteFile(path, Reseal(body));
  const auto loaded = LoadPartial(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find(
                "trailing bytes after the declared payload"),
            std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Reducer validation: wrong merges are refused before any accumulator work.
// ---------------------------------------------------------------------------

std::vector<PartialResult> TwoShardPartials(const ShardFixture& f,
                                            const VbReference& ref) {
  common::SetThreadCount(1);
  StreamingOptions opts;
  opts.window_frames = 10;
  std::vector<PartialResult> partials;
  for (int i = 0; i < 2; ++i) {
    auto seg = MakeOracle(f);
    partials.push_back(RunShard(ref, *seg, f.call, opts, i, 2).value());
  }
  return partials;
}

TEST_F(ShardTest, ReduceRefusesAnUnfinishedCheckpoint) {
  const ShardFixture& f = ShardFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  auto partials = TwoShardPartials(f, ref);
  partials[1].frames_done = 30;  // stopped 10 frames short of [20, 40)
  const auto merged = ReducePartials(std::move(partials));
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(merged.status().message().find(
                "partial [20, 40) is an unfinished checkpoint: decomposed "
                "only up to frame 30"),
            std::string::npos)
      << merged.status().ToString();
}

TEST_F(ShardTest, ReduceRefusesZeroPartials) {
  const auto merged = ReducePartials({});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ShardTest, ReduceRejectsOverlappingRanges) {
  const ShardFixture& f = ShardFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  common::SetThreadCount(1);
  StreamingOptions opts;
  opts.window_frames = 10;
  // Honest partials whose ranges genuinely overlap: shard 0 of 2 covers
  // [0, 20), a 1-of-1 "shard" covers [0, 40).
  auto seg_half = MakeOracle(f);
  auto seg_whole = MakeOracle(f);
  std::vector<PartialResult> partials;
  partials.push_back(RunShard(ref, *seg_half, f.call, opts, 0, 2).value());
  partials.push_back(RunShard(ref, *seg_whole, f.call, opts, 0, 1).value());
  const auto merged = ReducePartials(std::move(partials));
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(merged.status().message().find(
                "overlapping shard ranges: partial [0, 40) overlaps frames "
                "already covered up to 20"),
            std::string::npos);
}

TEST_F(ShardTest, ReduceRefusesIncompleteCoverageNamingTheGap) {
  const ShardFixture& f = ShardFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  common::SetThreadCount(1);
  StreamingOptions opts;
  opts.window_frames = 10;
  std::vector<PartialResult> three;
  for (int i = 0; i < 3; ++i) {
    auto seg = MakeOracle(f);
    three.push_back(RunShard(ref, *seg, f.call, opts, i, 3).value());
  }
  {
    // Middle shard missing: 40 frames shard 3 ways at [0,13),[13,26),[26,40).
    std::vector<PartialResult> gap = {three[0], three[2]};
    const auto merged = ReducePartials(std::move(gap));
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.status().code(), StatusCode::kAborted);
    EXPECT_NE(merged.status().message().find(
                  "incomplete shard coverage: missing frame range [13, 26)"),
              std::string::npos);
  }
  {
    // Tail missing.
    std::vector<PartialResult> tail = {three[0], three[1]};
    const auto merged = ReducePartials(std::move(tail));
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.status().code(), StatusCode::kAborted);
    EXPECT_NE(merged.status().message().find(
                  "incomplete shard coverage: missing frame range [26, 40)"),
              std::string::npos);
  }
}

TEST_F(ShardTest, ReduceRejectsMismatchedConfigHash) {
  const ShardFixture& f = ShardFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  auto partials = TwoShardPartials(f, ref);
  partials[1].config_hash ^= 1;  // e.g. built against a different reference
  const auto merged = ReducePartials(std::move(partials));
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(merged.status().message().find(
                "disagree on the reconstruction config"),
            std::string::npos);
  EXPECT_NE(merged.status().message().find("[20, 40)"), std::string::npos);
}

TEST_F(ShardTest, ReduceRejectsDivergentReconstructionOptions) {
  const ShardFixture& f = ShardFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  common::SetThreadCount(1);
  StreamingOptions a;
  a.window_frames = 10;
  StreamingOptions b = a;
  b.recon.min_leak_count = a.recon.min_leak_count + 1;
  auto seg_a = MakeOracle(f);
  auto seg_b = MakeOracle(f);
  std::vector<PartialResult> partials;
  partials.push_back(RunShard(ref, *seg_a, f.call, a, 0, 2).value());
  partials.push_back(RunShard(ref, *seg_b, f.call, b, 1, 2).value());
  // min_leak_count feeds the config hash, so the end-to-end mismatch is
  // caught there - no silent merge of differently-filtered partials.
  const auto merged = ReducePartials(std::move(partials));
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ShardTest, ReduceRejectsMismatchedFinalizeParameters) {
  const ShardFixture& f = ShardFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  auto partials = TwoShardPartials(f, ref);
  partials[1].bad_budget = 5;  // config hash still matches
  const auto merged = ReducePartials(std::move(partials));
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(merged.status().message().find(
                "disagree on the finalize parameters"),
            std::string::npos);
}

TEST_F(ShardTest, ReduceRejectsMismatchedStreamIdentity) {
  const ShardFixture& f = ShardFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  auto partials = TwoShardPartials(f, ref);
  partials[0].info.width += 2;
  const auto merged = ReducePartials(std::move(partials));
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(merged.status().message().find(
                "disagree on the stream identity"),
            std::string::npos);
}

TEST_F(ShardTest, MergedQuarantineUnionIsCheckedAgainstTheBudget) {
  const ShardFixture& f = ShardFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  common::SetThreadCount(1);
  StreamingOptions opts;
  opts.window_frames = 10;
  opts.max_bad_frames = 1;
  const Status reason(StatusCode::kDataLoss, "unreadable frame (test)");

  // Each worker saw a *different* transient failure, so each is within its
  // budget of 1 - but the union {3, 27} is not. The merge must fail exactly
  // as a single-process run seeing both failures would have.
  std::vector<PartialResult> partials;
  for (int i = 0; i < 2; ++i) {
    StreamingOptions sopts = opts;
    sopts.shard_index = i;
    sopts.shard_count = 2;
    auto seg = MakeOracle(f);
    StreamingReconstructor worker(ref, *seg, sopts);
    video::VideoStreamSource source(f.call.video);
    worker.Begin(source.info());
    const int bad = (i == 0) ? 3 : 27;
    for (int pass = 0; pass < worker.TotalPasses(); ++pass) {
      worker.BeginPass(pass);
      for (int k = 0; k < f.call.video.frame_count(); ++k) {
        if (k == bad) {
          ASSERT_TRUE(worker.PushBadFrame(k, reason).ok());
        } else {
          worker.PushFrame(f.call.video.frame(k), k);
        }
      }
      worker.EndPass(pass);
    }
    PartialResult partial = worker.FinalizePartial();
    EXPECT_EQ(partial.quarantined, std::vector<int>{bad});
    EXPECT_EQ(partial.bad_budget, 1);
    partials.push_back(std::move(partial));
  }
  const auto merged = ReducePartials(std::move(partials));
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kAborted);
  EXPECT_NE(merged.status().message().find(
                "bad-frame budget exceeded after merge: 2 of 40 frames "
                "quarantined across all partials (budget 1)"),
            std::string::npos);
}

}  // namespace
}  // namespace bb::core
