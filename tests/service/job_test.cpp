// BBJB job-record contract: sealed round-trip fidelity, the hostile-load
// corpus (truncation at every boundary, bit flips the checksum must catch,
// implausible fields behind a *valid* reseal), torn, failed and corrupt
// seals through the "write" fault point, the deterministic backoff
// schedule, and spec validation - the admission gate attackd and attackctl
// both call.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "../common/temp_dir.h"
#include "common/faultinject.h"
#include "core/wire.h"
#include "service/job.h"

namespace bb::service {
namespace {

using testdir::TempPath;

JobRecord SampleJob() {
  JobRecord job;
  job.id = 42;
  job.state = JobState::kRunning;
  job.spec.input = "call.bbv";
  job.spec.output = "call.recon";
  job.spec.vb = "beach";
  job.spec.phi = 1.5;
  job.spec.window = 32;
  job.spec.shards = 4;
  job.spec.threads = 2;
  job.spec.max_bad_frames = "10%";
  job.spec.max_attempts = 5;
  job.spec.backoff_ms = 100;
  job.spec.deadline_ms = 30000;
  job.attempts.push_back({0, -9, "watchdog: attempt exceeded deadline"});
  job.attempts.push_back({100, 1, "shard 2 exited 1"});
  job.final_reason = "";
  return job;
}

std::string ReadAll(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Re-seals mutated bytes so loads get past the checksum and exercise the
// field-level plausibility checks behind it.
std::string Reseal(std::string bytes) {
  bytes.resize(bytes.size() - 8);
  core::wire::PutU64(&bytes, core::wire::Fnv1a64(bytes));
  return bytes;
}

TEST(JobRecordTest, RoundTripPreservesEveryField) {
  const std::string path = TempPath("bbjb_roundtrip.bbjb");
  const JobRecord job = SampleJob();
  ASSERT_TRUE(SaveJob(job, path).ok());

  const auto loaded = LoadJob(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->id, job.id);
  EXPECT_EQ(loaded->state, job.state);
  EXPECT_EQ(loaded->spec.input, job.spec.input);
  EXPECT_EQ(loaded->spec.output, job.spec.output);
  EXPECT_EQ(loaded->spec.vb, job.spec.vb);
  EXPECT_EQ(loaded->spec.phi, job.spec.phi);
  EXPECT_EQ(loaded->spec.window, job.spec.window);
  EXPECT_EQ(loaded->spec.shards, job.spec.shards);
  EXPECT_EQ(loaded->spec.threads, job.spec.threads);
  EXPECT_EQ(loaded->spec.max_bad_frames, job.spec.max_bad_frames);
  EXPECT_EQ(loaded->spec.max_attempts, job.spec.max_attempts);
  EXPECT_EQ(loaded->spec.backoff_ms, job.spec.backoff_ms);
  EXPECT_EQ(loaded->spec.deadline_ms, job.spec.deadline_ms);
  ASSERT_EQ(loaded->attempts.size(), 2u);
  EXPECT_EQ(loaded->attempts[0].delay_ms, 0);
  EXPECT_EQ(loaded->attempts[0].exit_code, -9);
  EXPECT_EQ(loaded->attempts[0].reason,
            "watchdog: attempt exceeded deadline");
  EXPECT_EQ(loaded->attempts[1].delay_ms, 100);
  EXPECT_EQ(loaded->attempts[1].exit_code, 1);
  EXPECT_EQ(loaded->final_reason, job.final_reason);
  std::remove(path.c_str());
}

TEST(JobRecordTest, MissingFileIsNotFound) {
  const auto loaded = LoadJob(TempPath("bbjb_no_such_file.bbjb"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(JobRecordTest, TruncationAtEveryByteIsRejectedStructurally) {
  const std::string path = TempPath("bbjb_truncate.bbjb");
  ASSERT_TRUE(SaveJob(SampleJob(), path).ok());
  const std::string whole = ReadAll(path);
  ASSERT_GT(whole.size(), 60u);
  for (std::size_t len = 0; len < whole.size(); ++len) {
    WriteAll(path, whole.substr(0, len));
    const auto loaded = LoadJob(path);
    ASSERT_FALSE(loaded.ok()) << "accepted a " << len << "-byte prefix";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << len;
  }
  std::remove(path.c_str());
}

TEST(JobRecordTest, EveryBitFlipIsCaughtByTheChecksum) {
  const std::string path = TempPath("bbjb_bitflip.bbjb");
  ASSERT_TRUE(SaveJob(SampleJob(), path).ok());
  const std::string whole = ReadAll(path);
  // Flip one bit per byte position; the seal covers the trailer too.
  for (std::size_t i = 0; i < whole.size(); ++i) {
    std::string mutated = whole;
    mutated[i] ^= 0x01;
    WriteAll(path, mutated);
    const auto loaded = LoadJob(path);
    ASSERT_FALSE(loaded.ok()) << "accepted a flip at byte " << i;
  }
  std::remove(path.c_str());
}

TEST(JobRecordTest, ImplausibleFieldsBehindAValidSealAreRejected) {
  const std::string path = TempPath("bbjb_implausible.bbjb");
  ASSERT_TRUE(SaveJob(SampleJob(), path).ok());
  const std::string whole = ReadAll(path);

  {
    // state = 9 (bytes 16-19), resealed so only plausibility can catch it.
    std::string mutated = whole;
    mutated[16] = 9;
    WriteAll(path, Reseal(mutated));
    const auto loaded = LoadJob(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("implausible state"),
              std::string::npos)
        << loaded.status().ToString();
  }
  {
    // shards = 0 (bytes 32-35): structurally fine, semantically unusable.
    std::string mutated = whole;
    mutated[32] = 0;
    WriteAll(path, Reseal(mutated));
    const auto loaded = LoadJob(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // input length = 0xFFFFFFFF right after the fixed header.
    std::string mutated = whole;
    mutated[52] = '\xFF';
    mutated[53] = '\xFF';
    mutated[54] = '\xFF';
    mutated[55] = '\xFF';
    WriteAll(path, Reseal(mutated));
    const auto loaded = LoadJob(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("implausible input length"),
              std::string::npos)
        << loaded.status().ToString();
  }
  {
    // Unsupported future version, resealed.
    std::string mutated = whole;
    mutated[4] = 7;
    WriteAll(path, Reseal(mutated));
    const auto loaded = LoadJob(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  }
  {
    // Trailing garbage after the attempt list, resealed.
    std::string mutated = whole;
    mutated.resize(mutated.size() - 8);
    mutated += "xx";
    core::wire::PutU64(&mutated, core::wire::Fnv1a64(mutated));
    WriteAll(path, mutated);
    const auto loaded = LoadJob(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("trailing"), std::string::npos)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

class JobSealFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { faultinject::Clear(); }
};

TEST_F(JobSealFaultTest, TruncatedSealIsNeverVisible) {
  const std::string path = TempPath("bbjb_write_truncate.bbjb");
  ASSERT_TRUE(faultinject::Configure("write@0=truncate").ok());
  const Status saved = SaveJob(SampleJob(), path);
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kIoError);
  // The half-written bytes stay in the .tmp sibling, which ListJobs and
  // recovery ignore: a torn record at the destination would be
  // quarantined as unreadable on the next cold start.
  EXPECT_FALSE(std::filesystem::exists(path)) << "truncated seal visible";

  faultinject::Clear();
  ASSERT_TRUE(SaveJob(SampleJob(), path).ok());
  const auto loaded = LoadJob(path);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
}

TEST_F(JobSealFaultTest, FailedSealLeavesPriorGenerationIntact) {
  const std::string path = TempPath("bbjb_write_fail.bbjb");
  // Seal the running record clean, then fail the seal of its next
  // generation (one more attempt, finished).
  JobRecord job = SampleJob();
  ASSERT_TRUE(SaveJob(job, path).ok());
  ASSERT_TRUE(faultinject::Configure("write@0=fail").ok());
  job.state = JobState::kDone;
  job.attempts.push_back({200, 0, ""});
  ASSERT_FALSE(SaveJob(job, path).ok());

  const auto loaded = LoadJob(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->state, JobState::kRunning);
  EXPECT_EQ(loaded->attempts.size(), 2u);
}

TEST_F(JobSealFaultTest, CorruptSealIsCaughtByTheLoader) {
  const std::string path = TempPath("bbjb_write_corrupt.bbjb");
  ASSERT_TRUE(faultinject::Configure("write@0=corrupt").ok());
  // The flipped byte lands renamed; only the checksum stops the daemon
  // from acting on it.
  ASSERT_TRUE(SaveJob(SampleJob(), path).ok());
  const auto loaded = LoadJob(path);
  ASSERT_FALSE(loaded.ok()) << "loader trusted a corrupt seal";
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(JobRecordTest, BackoffScheduleIsDeterministicAndCapped) {
  JobSpec spec;
  spec.backoff_ms = 250;
  EXPECT_EQ(BackoffDelayMs(spec, 0), 0);      // first attempt is immediate
  EXPECT_EQ(BackoffDelayMs(spec, 1), 250);
  EXPECT_EQ(BackoffDelayMs(spec, 2), 500);
  EXPECT_EQ(BackoffDelayMs(spec, 3), 1000);
  EXPECT_EQ(BackoffDelayMs(spec, 9), 64000 > 60000 ? 60000 : 64000);
  EXPECT_EQ(BackoffDelayMs(spec, 50), 60000);  // capped, no overflow

  spec.backoff_ms = 0;  // retries without delay
  EXPECT_EQ(BackoffDelayMs(spec, 5), 0);
}

TEST(JobRecordTest, ValidateSpecNamesTheOffendingField) {
  JobSpec spec;
  spec.input = "a.bbv";
  spec.output = "a.out";
  EXPECT_TRUE(ValidateSpec(spec).ok());

  spec.shards = 257;
  const Status bad_shards = ValidateSpec(spec);
  ASSERT_FALSE(bad_shards.ok());
  EXPECT_EQ(bad_shards.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_shards.message().find("shards"), std::string::npos);
  spec.shards = 1;

  spec.input.clear();
  EXPECT_FALSE(ValidateSpec(spec).ok());
  spec.input = "a.bbv";

  spec.max_attempts = 0;
  EXPECT_FALSE(ValidateSpec(spec).ok());
}

}  // namespace
}  // namespace bb::service
