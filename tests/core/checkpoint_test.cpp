// BBCK checkpoint serialization: round-trip fidelity, write-temp-then-rename
// atomicity, and hostile-input loading - a checkpoint is attacker-adjacent
// state on disk, so every truncation/corruption must come back as a
// structured error, never a crash or a silently wrong resume.
#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace bb::core {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "bb_checkpoint_" + name;
}

CheckpointState SampleState() {
  CheckpointState state;
  state.info.width = 4;
  state.info.height = 3;
  state.info.frame_count = 10;
  state.info.fps = 12.5;
  state.frames_done = 6;
  state.shard_begin = 0;
  state.shard_end = 10;
  state.config_hash = 0x0123456789abcdefULL;
  state.quarantined = {2, 7};
  const std::size_t pixels = 4 * 3;
  for (std::size_t i = 0; i < pixels; ++i) {
    state.acc.counts.push_back(static_cast<int>(i % 5));
    state.acc.sum_r.push_back(static_cast<double>(i));
    state.acc.sum_g.push_back(static_cast<double>(2 * i));
    state.acc.sum_b.push_back(static_cast<double>(3 * i));
    state.acc.sum_r2.push_back(static_cast<double>(i * i));
    state.acc.sum_g2.push_back(static_cast<double>(i * i + 1));
    state.acc.sum_b2.push_back(static_cast<double>(i * i + 2));
  }
  for (int i = 0; i < state.info.frame_count; ++i) {
    state.per_frame_leak_fraction.push_back(i * 0.015625);  // exact in f64
  }
  return state;
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

TEST(CheckpointTest, RoundTripsEveryField) {
  const std::string path = TestPath("roundtrip.bbck");
  const CheckpointState saved = SampleState();
  ASSERT_TRUE(SaveCheckpoint(saved, path).ok());

  const auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->info.width, saved.info.width);
  EXPECT_EQ(loaded->info.height, saved.info.height);
  EXPECT_EQ(loaded->info.frame_count, saved.info.frame_count);
  EXPECT_DOUBLE_EQ(loaded->info.fps, saved.info.fps);
  EXPECT_EQ(loaded->frames_done, saved.frames_done);
  EXPECT_EQ(loaded->shard_begin, saved.shard_begin);
  EXPECT_EQ(loaded->shard_end, saved.shard_end);
  EXPECT_EQ(loaded->config_hash, saved.config_hash);
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

TEST(CheckpointTest, SaveLeavesNoTempFileBehind) {
  const std::string path = TestPath("atomic.bbck");
  ASSERT_TRUE(SaveCheckpoint(SampleState(), path).ok());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good()) << "temp file must be renamed into place";
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  const auto loaded = LoadCheckpoint(TestPath("never_written.bbck"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  // The path is in the context chain so the CLI warning is actionable.
  EXPECT_NE(loaded.status().message().find("never_written"),
            std::string::npos);
}

TEST(CheckpointTest, EveryTruncationIsStructuredDataLoss) {
  const std::string path = TestPath("truncate.bbck");
  ASSERT_TRUE(SaveCheckpoint(SampleState(), path).ok());
  const std::string full = ReadFile(path);
  ASSERT_GT(full.size(), 16u);
  // Cut the file at every prefix length (stepping to keep it fast near the
  // big middle): no prefix may crash, and none may load.
  for (std::size_t len = 0; len < full.size();
       len += (len < 64 ? 1 : 97)) {
    WriteFile(path, full.substr(0, len));
    const auto loaded = LoadCheckpoint(path);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << len;
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, AnySingleBitFlipIsCaughtByTheChecksum) {
  const std::string path = TestPath("bitflip.bbck");
  ASSERT_TRUE(SaveCheckpoint(SampleState(), path).ok());
  const std::string full = ReadFile(path);
  // Flip one bit in a spread of positions covering header, payload and the
  // checksum itself.
  for (std::size_t pos = 0; pos < full.size(); pos += 53) {
    std::string mutated = full;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x10);
    WriteFile(path, mutated);
    const auto loaded = LoadCheckpoint(path);
    ASSERT_FALSE(loaded.ok()) << "bit flip at byte " << pos << " loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << pos;
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, BadMagicRejects) {
  const std::string path = TestPath("magic.bbck");
  WriteFile(path, Reseal("XXCK then some bytes that do not matter"));
  const auto loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointTest, VersionMismatchIsFailedPrecondition) {
  const std::string path = TestPath("version.bbck");
  ASSERT_TRUE(SaveCheckpoint(SampleState(), path).ok());
  std::string body = ReadFile(path);
  body.resize(body.size() - 8);  // drop the old checksum
  // Version u32 little-endian at bytes 4..7: a v2 file (no config hash)
  // and a future v4 are both refused.
  for (const int version : {2, 4}) {
    body[4] = static_cast<char>(version);
    WriteFile(path, Reseal(body));
    const auto loaded = LoadCheckpoint(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(loaded.status().message().find(
                  "unsupported checkpoint version " + std::to_string(version) +
                  " (want 3)"),
              std::string::npos)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, ResealedImplausibleHeaderRejects) {
  const std::string path = TestPath("implausible.bbck");
  ASSERT_TRUE(SaveCheckpoint(SampleState(), path).ok());
  std::string body = ReadFile(path);
  body.resize(body.size() - 8);
  // frames_done (bytes 24..27) beyond frame_count: a valid checksum must
  // not make a lying header loadable.
  body[24] = static_cast<char>(0xFF);
  WriteFile(path, Reseal(body));
  const auto loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("implausible"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointTest, ResealedImplausibleShardRangeRejects) {
  const std::string path = TestPath("shard_range.bbck");
  ASSERT_TRUE(SaveCheckpoint(SampleState(), path).ok());
  std::string body = ReadFile(path);
  body.resize(body.size() - 8);
  // shard_end (bytes 32..35) far beyond frame_count: a valid checksum must
  // not make a lying shard range loadable.
  body[32] = static_cast<char>(0xFF);
  WriteFile(path, Reseal(body));
  const auto loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("implausible shard range"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointTest, ResealedTrailingBytesReject) {
  const std::string path = TestPath("trailing.bbck");
  ASSERT_TRUE(SaveCheckpoint(SampleState(), path).ok());
  std::string body = ReadFile(path);
  body.resize(body.size() - 8);
  body += "extra";
  WriteFile(path, Reseal(body));
  const auto loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("trailing bytes"),
            std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bb::core
