// Spool state-machine contract: directory layout, atomic transitions
// (write-then-remove, so the crash window duplicates rather than loses),
// cold-start recovery precedence, orphaned-running requeue, and id
// allocation.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "../common/temp_dir.h"
#include "common/faultinject.h"
#include "service/job.h"
#include "service/spool.h"

namespace bb::service {
namespace {

namespace fs = std::filesystem;

class SpoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = testdir::TempPath(
        "spool_" + std::string(::testing::UnitTest::GetInstance()
                                   ->current_test_info()
                                   ->name()));
    fs::remove_all(root_);
    ASSERT_TRUE(EnsureSpool(root_).ok());
  }
  void TearDown() override {
    faultinject::Clear();
    fs::remove_all(root_);
  }

  JobRecord Job(std::uint64_t id, JobState state) {
    JobRecord job;
    job.id = id;
    job.state = state;
    job.spec.input = "in.bbv";
    job.spec.output = "out";
    return job;
  }

  std::string root_;
};

TEST_F(SpoolTest, EnsureSpoolCreatesEveryStateDirectory) {
  for (const char* dir : {kIncomingDir, kQueuedDir, kRunningDir, kDoneDir,
                          kFailedDir, kWorkDir}) {
    EXPECT_TRUE(fs::is_directory(fs::path(root_) / dir)) << dir;
  }
}

TEST_F(SpoolTest, ListJobsSortsAndIgnoresForeignFiles) {
  ASSERT_TRUE(SaveJob(Job(30, JobState::kQueued),
                      JobPath(root_, kQueuedDir, 30)).ok());
  ASSERT_TRUE(SaveJob(Job(4, JobState::kQueued),
                      JobPath(root_, kQueuedDir, 4)).ok());
  // Leftover temp files and non-numeric names must be invisible.
  std::ofstream(fs::path(root_) / kQueuedDir / "5.bbjb.tmp") << "partial";
  std::ofstream(fs::path(root_) / kQueuedDir / "notajob.bbjb") << "x";
  std::ofstream(fs::path(root_) / kQueuedDir / "README") << "x";

  const auto ids = ListJobs(root_, kQueuedDir);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ(*ids, (std::vector<std::uint64_t>{4, 30}));
}

TEST_F(SpoolTest, MoveJobWritesDestinationThenRemovesSource) {
  ASSERT_TRUE(SaveJob(Job(7, JobState::kQueued),
                      JobPath(root_, kQueuedDir, 7)).ok());
  JobRecord job = Job(7, JobState::kRunning);
  ASSERT_TRUE(MoveJob(job, root_, kQueuedDir, kRunningDir).ok());
  EXPECT_FALSE(fs::exists(JobPath(root_, kQueuedDir, 7)));
  const auto moved = LoadJob(JobPath(root_, kRunningDir, 7));
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->state, JobState::kRunning);
}

TEST_F(SpoolTest, TornMoveKeepsTheSourceRecord) {
  ASSERT_TRUE(SaveJob(Job(7, JobState::kQueued),
                      JobPath(root_, kQueuedDir, 7)).ok());
  // The destination seal tears, so the move stops before the unlink: the
  // job stays queued instead of vanishing from every state directory.
  ASSERT_TRUE(faultinject::Configure("write@0=truncate").ok());
  const Status moved =
      MoveJob(Job(7, JobState::kRunning), root_, kQueuedDir, kRunningDir);
  ASSERT_FALSE(moved.ok());
  EXPECT_EQ(moved.code(), StatusCode::kIoError);
  EXPECT_NE(moved.ToString().find("spool move queued -> running"),
            std::string::npos)
      << moved.ToString();
  faultinject::Clear();

  const auto kept = LoadJob(JobPath(root_, kQueuedDir, 7));
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(kept->state, JobState::kQueued);
  // The torn bytes stay in running/7.bbjb.tmp, which the spool never lists.
  EXPECT_FALSE(fs::exists(JobPath(root_, kRunningDir, 7)));
  const auto running = ListJobs(root_, kRunningDir);
  ASSERT_TRUE(running.ok()) << running.status().ToString();
  EXPECT_TRUE(running->empty());
}

TEST_F(SpoolTest, RecoveryResolvesDuplicatesByPrecedence) {
  // The same job visible in queued/ AND done/ - the crash window of a
  // MoveJob that sealed the destination but died before the unlink. The
  // done/ copy must win.
  ASSERT_TRUE(SaveJob(Job(9, JobState::kQueued),
                      JobPath(root_, kQueuedDir, 9)).ok());
  ASSERT_TRUE(SaveJob(Job(9, JobState::kDone),
                      JobPath(root_, kDoneDir, 9)).ok());
  // And one duplicated across incoming/ and queued/ - queued wins.
  ASSERT_TRUE(SaveJob(Job(11, JobState::kQueued),
                      JobPath(root_, kIncomingDir, 11)).ok());
  ASSERT_TRUE(SaveJob(Job(11, JobState::kQueued),
                      JobPath(root_, kQueuedDir, 11)).ok());

  const auto report = RecoverSpool(root_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->duplicates_dropped, 2);
  EXPECT_FALSE(fs::exists(JobPath(root_, kQueuedDir, 9)));
  EXPECT_TRUE(fs::exists(JobPath(root_, kDoneDir, 9)));
  EXPECT_FALSE(fs::exists(JobPath(root_, kIncomingDir, 11)));
  EXPECT_TRUE(fs::exists(JobPath(root_, kQueuedDir, 11)));
}

TEST_F(SpoolTest, RecoveryRequeuesOrphanedRunningJobs) {
  ASSERT_TRUE(SaveJob(Job(3, JobState::kRunning),
                      JobPath(root_, kRunningDir, 3)).ok());
  const auto report = RecoverSpool(root_);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->requeued, 1);
  EXPECT_FALSE(fs::exists(JobPath(root_, kRunningDir, 3)));
  const auto requeued = LoadJob(JobPath(root_, kQueuedDir, 3));
  ASSERT_TRUE(requeued.ok());
  EXPECT_EQ(requeued->state, JobState::kQueued);
}

TEST_F(SpoolTest, RecoveryQuarantinesUnreadableRunningRecord) {
  // A running record whose bytes went bad must not wedge recovery.
  std::ofstream(JobPath(root_, kRunningDir, 5), std::ios::binary)
      << "garbage, not a BBJB record";
  const auto report = RecoverSpool(root_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->requeued, 0);
  EXPECT_FALSE(fs::exists(JobPath(root_, kRunningDir, 5)));
  EXPECT_TRUE(fs::exists(JobPath(root_, kFailedDir, 5) + ".corrupt"));
}

TEST_F(SpoolTest, RecoveryIsIdempotent) {
  ASSERT_TRUE(SaveJob(Job(3, JobState::kRunning),
                      JobPath(root_, kRunningDir, 3)).ok());
  ASSERT_TRUE(RecoverSpool(root_).ok());
  const auto second = RecoverSpool(root_);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->duplicates_dropped, 0);
  EXPECT_EQ(second->requeued, 0);
}

TEST_F(SpoolTest, NextJobIdSpansEveryStateDirectory) {
  const auto empty = NextJobId(root_);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, 1u);

  ASSERT_TRUE(SaveJob(Job(2, JobState::kQueued),
                      JobPath(root_, kQueuedDir, 2)).ok());
  ASSERT_TRUE(SaveJob(Job(8, JobState::kDone),
                      JobPath(root_, kDoneDir, 8)).ok());
  const auto next = NextJobId(root_);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 9u);
}

}  // namespace
}  // namespace bb::service
