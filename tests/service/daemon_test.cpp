// End-to-end contract of the attackd service layer, driven against the
// REAL binaries (BACKBUSTER_BIN / ATTACKD_BIN / ATTACKCTL_BIN point at the
// built artifacts):
//
//   * a drained spool's merged outputs are byte-identical to a direct
//     single-process `backbuster attack`,
//   * admission refuses hostile records, missing inputs, and
//     over-capacity submissions with pinned structured reasons,
//   * injected spawn faults and kill -9'd workers are retried on the
//     deterministic backoff schedule and still converge byte-identical,
//   * the watchdog SIGKILLs hung workers and retry exhaustion lands the
//     job in failed/ without wedging the queue,
//   * SIGTERM drains gracefully (workers seal checkpoints, the job
//     requeues) and kill -9 of the daemon itself is recovered on restart,
//   * a SIGINT/SIGTERM'd `backbuster attack --stream --checkpoint` exits
//     3 with a sealed checkpoint and resumes byte-identical,
//   * a malformed or out-of-range number on any binary's command line is
//     a usage error (exit 2) naming the flag, never a silent default.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../common/temp_dir.h"
#include "common/faultinject.h"
#include "common/trace.h"
#include "service/daemon.h"
#include "service/job.h"
#include "service/spool.h"

#ifndef BACKBUSTER_BIN
#error "BACKBUSTER_BIN must point at the built backbuster binary"
#endif
#ifndef ATTACKD_BIN
#error "ATTACKD_BIN must point at the built attackd binary"
#endif
#ifndef ATTACKCTL_BIN
#error "ATTACKCTL_BIN must point at the built attackctl binary"
#endif

namespace bb::service {
namespace {

namespace fs = std::filesystem;

int RunShell(const std::string& cmd) {
  const int rc = std::system(cmd.c_str());
  if (rc == -1) return -1;
  if (WIFEXITED(rc)) return WEXITSTATUS(rc);
  if (WIFSIGNALED(rc)) return -WTERMSIG(rc);
  return -1;
}

// Spawns `cmd` through /bin/sh (with `exec` so the pid IS the target
// process) and returns the child pid for signal/waitpid control.
pid_t SpawnShell(const std::string& cmd) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execl("/bin/sh", "sh", "-c", ("exec " + cmd).c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  return pid;
}

int WaitFor(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return -WTERMSIG(status);
  return -1;
}

std::string ReadAll(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

// Everything this binary writes lives under one directory keyed on the pid,
// so concurrently running test processes never share a path.
using testdir::TempPath;

// WriteImageAuto writes <base>.png when PNG support is built in and
// <base>.ppm otherwise; reads whichever was written.
std::string ReadImage(const std::string& base) {
  const std::string png = base + ".png";
  return ReadAll(fs::exists(png) ? png : base + ".ppm");
}

bool PollUntil(const std::function<bool()>& done, int timeout_ms) {
  const double until =
      trace::MonotonicSeconds() + static_cast<double>(timeout_ms) / 1000.0;
  while (trace::MonotonicSeconds() < until) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return done();
}

// One simulated stream per fixture size, built once and shared read-only.
const std::string& SmallStream() {
  static const std::string path = [] {
    const std::string p = TempPath("small.bbv");
    EXPECT_EQ(RunShell(std::string("\"") + BACKBUSTER_BIN +
                       "\" simulate --out " + p +
                       " --duration 2 --width 96 --height 72"
                       " > /dev/null 2>&1"),
              0);
    return p;
  }();
  return path;
}

// A longer stream for the interruption tests: big enough that a signal
// lands mid-run, windowed small so many checkpoints seal along the way.
const std::string& LongStream() {
  static const std::string path = [] {
    const std::string p = TempPath("long.bbv");
    EXPECT_EQ(RunShell(std::string("\"") + BACKBUSTER_BIN +
                       "\" simulate --out " + p + " --duration 12"
                       " > /dev/null 2>&1"),
              0);
    return p;
  }();
  return path;
}

// The direct single-process reconstruction every daemon path must match
// byte for byte.
std::string DirectReconstruction(const std::string& stream) {
  static std::map<std::string, std::string> cache;
  auto it = cache.find(stream);
  if (it != cache.end()) return it->second;
  const std::string out = TempPath("direct_" + std::to_string(cache.size()));
  EXPECT_EQ(RunShell(std::string("\"") + BACKBUSTER_BIN + "\" attack --in " +
                     stream + " --stream --out " + out +
                     " > /dev/null 2>&1"),
            0);
  return cache.emplace(stream, ReadImage(out)).first->second;
}

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = TempPath(
        std::string("test_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    out_dir_ = root_ + ".out";
    fs::remove_all(out_dir_);
    fs::create_directories(out_dir_);
  }
  void TearDown() override {
    faultinject::Clear();
    fs::remove_all(root_);
    fs::remove_all(out_dir_);
  }

  std::string OutBase(const std::string& name) {
    return (fs::path(out_dir_) / name).string();
  }

  std::uint64_t Submit(const JobSpec& spec) {
    EXPECT_TRUE(EnsureSpool(root_).ok());
    const auto id = NextJobId(root_);
    EXPECT_TRUE(id.ok());
    JobRecord job;
    job.id = *id;
    job.spec = spec;
    EXPECT_TRUE(SaveJob(job, JobPath(root_, kIncomingDir, job.id)).ok());
    return job.id;
  }

  JobSpec QuickJob(const std::string& out, int shards = 1) {
    JobSpec spec;
    spec.input = SmallStream();
    spec.output = OutBase(out);
    spec.shards = shards;
    spec.window = 8;
    spec.threads = 1;
    spec.backoff_ms = 10;  // keep retry tests fast; schedule still recorded
    return spec;
  }

  DaemonOptions Opts() {
    DaemonOptions opts;
    opts.spool_root = root_;
    opts.worker_bin = BACKBUSTER_BIN;
    opts.drain_once = true;
    opts.poll_ms = 20;
    return opts;
  }

  std::string root_;
  std::string out_dir_;
};

// --- happy path + attackctl boundary ---------------------------------------

TEST_F(DaemonTest, DrainedSpoolIsByteIdenticalToDirectAttack) {
  // Submit through the real client so the BBJB record crosses a process
  // boundary before the daemon loads it.
  ASSERT_EQ(RunShell(std::string("\"") + ATTACKCTL_BIN + "\" submit --spool " +
                     root_ + " --in " + SmallStream() + " --out " +
                     OutBase("sharded") +
                     " --shards 3 --window 8 --threads 1 > /dev/null"),
            0);
  ASSERT_EQ(RunShell(std::string("\"") + ATTACKCTL_BIN + "\" submit --spool " +
                     root_ + " --in " + SmallStream() + " --out " +
                     OutBase("single") + " --window 8 --threads 1"
                     " > /dev/null"),
            0);

  Daemon daemon(Opts());
  const Status run = daemon.Run();
  ASSERT_TRUE(run.ok()) << run.ToString();
  EXPECT_EQ(daemon.stats().jobs_admitted, 2);
  EXPECT_EQ(daemon.stats().jobs_done, 2);
  EXPECT_EQ(daemon.stats().jobs_failed, 0);
  // 3 shard workers + reduce, then 1 shard worker + reduce.
  EXPECT_EQ(daemon.stats().workers_spawned, 6);

  const std::string golden = DirectReconstruction(SmallStream());
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(ReadImage(OutBase("sharded")), golden);
  EXPECT_EQ(ReadImage(OutBase("single")), golden);

  // Both records ended in done/ with a clean single attempt.
  const auto done = ListJobs(root_, kDoneDir);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->size(), 2u);
  for (const std::uint64_t id : *done) {
    const auto job = LoadJob(JobPath(root_, kDoneDir, id));
    ASSERT_TRUE(job.ok());
    EXPECT_EQ(job->state, JobState::kDone);
    ASSERT_EQ(job->attempts.size(), 1u);
    EXPECT_EQ(job->attempts[0].exit_code, 0);
  }

  // `attackctl wait` sees the drained spool immediately, and the JSON
  // status carries the terminal states.
  EXPECT_EQ(RunShell(std::string("\"") + ATTACKCTL_BIN + "\" wait --spool " +
                     root_ + " --timeout-ms 1000 > /dev/null"),
            0);
  const std::string json_path = OutBase("status.json");
  ASSERT_EQ(RunShell(std::string("\"") + ATTACKCTL_BIN + "\" status --spool " +
                     root_ + " --json > " + json_path),
            0);
  const std::string json = ReadAll(json_path);
  EXPECT_NE(json.find("\"state\":\"done\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"attempts\":1"), std::string::npos) << json;
}

// --- admission control ------------------------------------------------------

TEST_F(DaemonTest, HostileSubmissionIsRefusedWithStructuredReason) {
  ASSERT_TRUE(EnsureSpool(root_).ok());
  // Garbage bytes under a well-formed name: the loader must refuse, the
  // daemon must quarantine, and a healthy job behind it must still run.
  std::ofstream(JobPath(root_, kIncomingDir, 7), std::ios::binary)
      << "BBJBgarbage that is not a sealed record";
  const std::uint64_t good = Submit(QuickJob("after_hostile"));

  Daemon daemon(Opts());
  ASSERT_TRUE(daemon.Run().ok());
  EXPECT_EQ(daemon.stats().jobs_refused, 1);
  EXPECT_EQ(daemon.stats().jobs_done, 1);

  const auto refused = LoadJob(JobPath(root_, kFailedDir, 7));
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(refused->state, JobState::kFailed);
  EXPECT_EQ(refused->final_reason.rfind("INVALID_JOB_RECORD:", 0), 0u)
      << refused->final_reason;
  EXPECT_TRUE(fs::exists(JobPath(root_, kDoneDir, good)));
}

TEST_F(DaemonTest, MissingInputIsRefusedNotRetried) {
  JobSpec spec = QuickJob("no_input");
  spec.input = (fs::path(root_) / "does_not_exist.bbv").string();
  const std::uint64_t id = Submit(spec);

  Daemon daemon(Opts());
  ASSERT_TRUE(daemon.Run().ok());
  const auto job = LoadJob(JobPath(root_, kFailedDir, id));
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->final_reason.rfind("NOT_FOUND:", 0), 0u)
      << job->final_reason;
  EXPECT_TRUE(job->attempts.empty());  // refused at admission, never run
}

TEST_F(DaemonTest, OverCapacitySubmissionIsRefusedResourceExhausted) {
  const std::uint64_t first = Submit(QuickJob("adm1"));
  const std::uint64_t second = Submit(QuickJob("adm2"));

  DaemonOptions opts = Opts();
  opts.queue_depth = 1;
  Daemon daemon(opts);
  ASSERT_TRUE(daemon.Run().ok());
  EXPECT_EQ(daemon.stats().jobs_admitted, 1);
  EXPECT_EQ(daemon.stats().jobs_refused, 1);
  EXPECT_TRUE(fs::exists(JobPath(root_, kDoneDir, first)));

  const auto refused = LoadJob(JobPath(root_, kFailedDir, second));
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->final_reason.rfind("RESOURCE_EXHAUSTED:", 0), 0u)
      << refused->final_reason;
}

// --- retry / chaos ----------------------------------------------------------

TEST_F(DaemonTest, InjectedSpawnFaultIsRetriedOnTheRecordedSchedule) {
  const std::uint64_t id = Submit(QuickJob("spawnfault"));
  ASSERT_TRUE(faultinject::Configure("spawn@0=fail").ok());

  Daemon daemon(Opts());
  ASSERT_TRUE(daemon.Run().ok());
  EXPECT_EQ(daemon.stats().jobs_done, 1);
  EXPECT_EQ(daemon.stats().retries, 1);

  const auto job = LoadJob(JobPath(root_, kDoneDir, id));
  ASSERT_TRUE(job.ok());
  ASSERT_EQ(job->attempts.size(), 2u);
  EXPECT_EQ(job->attempts[0].exit_code, 127);
  EXPECT_NE(job->attempts[0].reason.find("failed to launch"),
            std::string::npos)
      << job->attempts[0].reason;
  // The retry waited exactly the deterministic schedule's first delay.
  EXPECT_EQ(job->attempts[1].delay_ms, BackoffDelayMs(job->spec, 1));
  EXPECT_EQ(job->attempts[1].exit_code, 0);

  EXPECT_EQ(ReadImage(OutBase("spawnfault")),
            DirectReconstruction(SmallStream()));
}

TEST_F(DaemonTest, KilledWorkerMidRangeRecoversByteIdentical) {
  // A wrapper worker that SIGKILLs the real worker mid-range on the first
  // launch and runs it normally afterwards - the "kill -9 a worker"
  // acceptance cell. The retried worker resumes from its own sealed
  // checkpoint and the merged output must not differ by one byte.
  const std::string marker = (fs::path(out_dir_) / "killed_once").string();
  const std::string wrapper = (fs::path(out_dir_) / "killer_worker").string();
  {
    std::ofstream f(wrapper);
    f << "#!/bin/sh\n"
      << "if [ ! -f " << marker << " ]; then\n"
      << "  touch " << marker << "\n"
      << "  \"" << BACKBUSTER_BIN << "\" \"$@\" &\n"
      << "  pid=$!\n"
      << "  sleep 0.4\n"
      << "  kill -9 $pid 2>/dev/null\n"
      << "  wait $pid\n"
      << "  exit 137\n"
      << "fi\n"
      << "exec \"" << BACKBUSTER_BIN << "\" \"$@\"\n";
  }
  fs::permissions(wrapper, fs::perms::owner_all);

  JobSpec spec;
  spec.input = LongStream();
  spec.output = OutBase("killed_worker");
  spec.window = 8;
  spec.backoff_ms = 10;
  const std::uint64_t id = Submit(spec);

  DaemonOptions opts = Opts();
  opts.worker_bin = wrapper;
  Daemon daemon(opts);
  ASSERT_TRUE(daemon.Run().ok());
  EXPECT_EQ(daemon.stats().jobs_done, 1);

  const auto job = LoadJob(JobPath(root_, kDoneDir, id));
  ASSERT_TRUE(job.ok());
  ASSERT_GE(job->attempts.size(), 2u);
  EXPECT_EQ(job->attempts[0].exit_code, 137);

  EXPECT_EQ(ReadImage(OutBase("killed_worker")),
            DirectReconstruction(LongStream()));
}

TEST_F(DaemonTest, RefusedPartialIsRecomputedNotReused) {
  // A junk partial for shard 1 sits in the job's workdir before the first
  // attempt (a torn seal, media corruption, or an older build's format).
  // The attempt skips shard 1 and the reducer refuses the file; the
  // daemon must drop the partials so the retry recomputes them instead of
  // re-merging the same bytes until the attempt budget is spent.
  JobSpec spec = QuickJob("refused_partial", /*shards=*/2);
  spec.backoff_ms = 0;
  const std::uint64_t id = Submit(spec);
  const fs::path workdir = fs::path(root_) / kWorkDir / std::to_string(id);
  fs::create_directories(workdir);
  std::ofstream(workdir / "shard1of2.bbpr", std::ios::binary)
      << "BBPR: junk that no reducer can load.";  // 36 bytes

  Daemon daemon(Opts());
  ASSERT_TRUE(daemon.Run().ok());
  EXPECT_EQ(daemon.stats().jobs_done, 1);
  // Shard 0 + reduce, then both shards + reduce.
  EXPECT_EQ(daemon.stats().workers_spawned, 5);

  const auto job = LoadJob(JobPath(root_, kDoneDir, id));
  ASSERT_TRUE(job.ok()) << "job did not finish";
  ASSERT_EQ(job->attempts.size(), 2u);
  EXPECT_EQ(job->attempts[0].exit_code, 1);
  EXPECT_NE(job->attempts[0].reason.find(
                "reduce exited 1 (see " + workdir.string() +
                "/reduce.log); removed the job's partials for recomputation"),
            std::string::npos)
      << job->attempts[0].reason;
  EXPECT_EQ(job->attempts[1].exit_code, 0);
  EXPECT_EQ(ReadImage(OutBase("refused_partial")),
            DirectReconstruction(SmallStream()));
}

TEST_F(DaemonTest, WatchdogKillsHungWorkerAndExhaustionQuarantines) {
  // A worker that hangs forever: every attempt must die by watchdog
  // SIGKILL, and exhaustion must land the job in failed/ with a
  // structured reason - while a healthy job behind it still completes
  // (the queue never wedges).
  const std::string hung = (fs::path(out_dir_) / "hung_worker").string();
  {
    std::ofstream f(hung);
    f << "#!/bin/sh\nexec sleep 600\n";
  }
  fs::permissions(hung, fs::perms::owner_all);

  JobSpec doomed_spec = QuickJob("hung");
  doomed_spec.deadline_ms = 300;
  doomed_spec.max_attempts = 2;
  const std::uint64_t doomed = Submit(doomed_spec);
  // A second deadline'd job behind it: the first job's exhaustion must not
  // wedge the queue - the supervisor has to reach this one too.
  JobSpec next_spec = QuickJob("after_hung");
  next_spec.deadline_ms = 300;
  next_spec.max_attempts = 1;
  const std::uint64_t next = Submit(next_spec);

  DaemonOptions opts = Opts();
  opts.worker_bin = hung;
  Daemon daemon(opts);
  ASSERT_TRUE(daemon.Run().ok());
  EXPECT_EQ(daemon.stats().worker_timeouts, 3);  // 2 attempts + 1 attempt
  EXPECT_EQ(daemon.stats().jobs_failed, 2);

  const auto job = LoadJob(JobPath(root_, kFailedDir, doomed));
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->state, JobState::kFailed);
  EXPECT_EQ(job->final_reason.rfind("RETRY_EXHAUSTED:", 0), 0u)
      << job->final_reason;
  ASSERT_EQ(job->attempts.size(), 2u);
  for (const JobAttempt& a : job->attempts) {
    EXPECT_EQ(a.exit_code, -SIGKILL);
    EXPECT_NE(a.reason.find("watchdog"), std::string::npos) << a.reason;
  }
  // Attempt 2 waited the deterministic first backoff delay.
  EXPECT_EQ(job->attempts[1].delay_ms, BackoffDelayMs(job->spec, 1));
  // The queue progressed past the exhausted job.
  EXPECT_TRUE(fs::exists(JobPath(root_, kFailedDir, next)));
}

TEST_F(DaemonTest, UsageErrorFailsPermanentlyWithoutRetries) {
  // A worker that exits 2 (the usage-error contract code) no matter what:
  // the daemon must fail the job permanently instead of burning retries.
  const std::string bad = (fs::path(out_dir_) / "usage_worker").string();
  {
    std::ofstream f(bad);
    f << "#!/bin/sh\nexit 2\n";
  }
  fs::permissions(bad, fs::perms::owner_all);

  JobSpec spec = QuickJob("usage");
  const std::uint64_t id = Submit(spec);

  DaemonOptions opts = Opts();
  opts.worker_bin = bad;
  Daemon daemon(opts);
  ASSERT_TRUE(daemon.Run().ok());
  const auto job = LoadJob(JobPath(root_, kFailedDir, id));
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->final_reason.rfind("INVALID_ARGUMENT:", 0), 0u)
      << job->final_reason;
  EXPECT_EQ(job->attempts.size(), 1u);  // no retry burned on a usage error
  EXPECT_EQ(daemon.stats().retries, 0);
}

TEST_F(DaemonTest, InjectedSpoolFaultQuarantinesTheRecordNotTheQueue) {
  const std::uint64_t id = Submit(QuickJob("spoolfault"));
  // Load occurrence 0 is the admission read (clean); occurrence 1 is the
  // daemon re-loading its own queued record, which goes corrupt.
  ASSERT_TRUE(faultinject::Configure("spool@1=corrupt").ok());

  Daemon daemon(Opts());
  ASSERT_TRUE(daemon.Run().ok());
  EXPECT_EQ(daemon.stats().jobs_admitted, 1);
  EXPECT_EQ(daemon.stats().jobs_failed, 1);
  // The unreadable record's bytes are preserved for diagnosis, the queue
  // is empty, and the daemon exited cleanly instead of wedging.
  EXPECT_TRUE(
      fs::exists(JobPath(root_, kFailedDir, id) + ".corrupt"));
  const auto queued = ListJobs(root_, kQueuedDir);
  ASSERT_TRUE(queued.ok());
  EXPECT_TRUE(queued->empty());
}

// --- daemon lifecycle (real attackd binary) ---------------------------------

TEST_F(DaemonTest, SigtermDrainsGracefullyAndRestartResumesByteIdentical) {
  JobSpec spec;
  spec.input = LongStream();
  spec.output = OutBase("drained");
  spec.window = 8;
  const std::uint64_t id = Submit(spec);

  const pid_t daemon_pid = SpawnShell(
      std::string("\"") + ATTACKD_BIN + "\" --spool " + root_ +
      " --worker-bin \"" + BACKBUSTER_BIN + "\" > /dev/null 2>&1");
  ASSERT_GT(daemon_pid, 0);
  // Wait for the job to be mid-flight (its first shard checkpoint seals),
  // then ask for a graceful drain.
  const std::string ck =
      (fs::path(root_) / kWorkDir / std::to_string(id) / "shard0of1.bbck")
          .string();
  ASSERT_TRUE(PollUntil([&] { return fs::exists(ck); }, 30000))
      << "worker never sealed a checkpoint";
  ::kill(daemon_pid, SIGTERM);
  EXPECT_EQ(WaitFor(daemon_pid), 0);

  // The job went back to queued/ with a budget-free interrupted attempt.
  const auto requeued = LoadJob(JobPath(root_, kQueuedDir, id));
  ASSERT_TRUE(requeued.ok()) << requeued.status().ToString();
  EXPECT_EQ(requeued->state, JobState::kQueued);
  ASSERT_GE(requeued->attempts.size(), 1u);
  EXPECT_EQ(requeued->attempts.back().exit_code, 3);
  EXPECT_TRUE(fs::exists(ck)) << "drain discarded the sealed checkpoint";

  // A fresh daemon finishes it from the checkpoint, byte-identical.
  Daemon daemon(Opts());
  ASSERT_TRUE(daemon.Run().ok());
  EXPECT_EQ(daemon.stats().jobs_done, 1);
  const auto done = LoadJob(JobPath(root_, kDoneDir, id));
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(ReadImage(OutBase("drained")),
            DirectReconstruction(LongStream()));
}

TEST_F(DaemonTest, KillNineOfTheDaemonIsRecoveredOnRestart) {
  JobSpec spec;
  spec.input = LongStream();
  spec.output = OutBase("kill9");
  spec.window = 8;
  const std::uint64_t id = Submit(spec);

  const pid_t daemon_pid = SpawnShell(
      std::string("\"") + ATTACKD_BIN + "\" --spool " + root_ +
      " --worker-bin \"" + BACKBUSTER_BIN + "\" > /dev/null 2>&1");
  ASSERT_GT(daemon_pid, 0);
  const std::string running = JobPath(root_, kRunningDir, id);
  ASSERT_TRUE(PollUntil([&] { return fs::exists(running); }, 30000));
  ::kill(daemon_pid, SIGKILL);
  EXPECT_EQ(WaitFor(daemon_pid), -SIGKILL);

  // The kill orphaned the shard worker; it keeps running and seals its
  // partial. Wait for it so the restarted daemon's state is
  // deterministic (partial present -> shard skipped -> reduce only).
  const std::string partial =
      (fs::path(root_) / kWorkDir / std::to_string(id) / "shard0of1.bbpr")
          .string();
  ASSERT_TRUE(PollUntil([&] { return fs::exists(partial); }, 60000))
      << "orphaned worker never sealed its partial";
  // The orphan also inherited the killed daemon's daemon.lock descriptor,
  // so a restart is refused until it exits; wait for that too.
  const std::string lock = (fs::path(root_) / "daemon.lock").string();
  ASSERT_TRUE(PollUntil(
      [&] {
        const int fd = ::open(lock.c_str(), O_RDWR);
        const bool free = fd >= 0 && ::flock(fd, LOCK_EX | LOCK_NB) == 0;
        if (fd >= 0) ::close(fd);
        return free;
      },
      60000))
      << "orphaned worker never exited";

  // The record is still in running/ - the daemon died owning it. A
  // restart requeues and completes it.
  EXPECT_TRUE(fs::exists(running));
  Daemon daemon(Opts());
  const Status run = daemon.Run();
  ASSERT_TRUE(run.ok()) << run.ToString();
  EXPECT_EQ(daemon.stats().jobs_requeued, 1);
  EXPECT_EQ(daemon.stats().jobs_done, 1);
  EXPECT_EQ(ReadImage(OutBase("kill9")),
            DirectReconstruction(LongStream()));
}

TEST_F(DaemonTest, SecondDaemonOnTheSameSpoolIsRefused) {
  ASSERT_TRUE(EnsureSpool(root_).ok());
  const pid_t daemon_pid = SpawnShell(
      std::string("\"") + ATTACKD_BIN + "\" --spool " + root_ +
      " > /dev/null 2>&1");
  ASSERT_GT(daemon_pid, 0);
  const std::string lock = (fs::path(root_) / "daemon.lock").string();
  ASSERT_TRUE(PollUntil([&] { return fs::exists(lock); }, 10000));

  Daemon daemon(Opts());
  const Status second = daemon.Run();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.code(), StatusCode::kFailedPrecondition);
  // The refusal names both holders a lock can have, including the shard
  // worker a kill -9'd daemon orphaned (it inherits daemon.lock).
  EXPECT_NE(second.message().find(
                "daemon.lock is held by another attackd or by a shard worker "
                "a killed attackd started; retry once it exits"),
            std::string::npos)
      << second.message();

  ::kill(daemon_pid, SIGTERM);
  EXPECT_EQ(WaitFor(daemon_pid), 0);
}

// --- backbuster signal contract (satellite: SIGINT/SIGTERM seal) ------------

TEST_F(DaemonTest, InterruptedStreamingAttackExitsThreeAndResumesIdentical) {
  const std::string ck = OutBase("sig.bbck");
  const std::string out = OutBase("sig");
  const pid_t pid = SpawnShell(
      std::string("\"") + BACKBUSTER_BIN + "\" attack --in " + LongStream() +
      " --stream --window 8 --checkpoint " + ck + " --out " + out +
      " > /dev/null 2>&1");
  ASSERT_GT(pid, 0);
  // The handler only helps once decomposition progress exists; wait for
  // the first sealed checkpoint before interrupting.
  ASSERT_TRUE(PollUntil([&] { return fs::exists(ck); }, 30000))
      << "no checkpoint sealed before the signal";
  ::kill(pid, SIGTERM);
  EXPECT_EQ(WaitFor(pid), 3) << "interrupted run must exit 3 (resumable)";
  EXPECT_TRUE(fs::exists(ck)) << "exit 3 without a sealed checkpoint";

  // Resume to completion; the checkpoint is consumed and the output is
  // byte-identical to a never-interrupted run.
  ASSERT_EQ(RunShell(std::string("\"") + BACKBUSTER_BIN + "\" attack --in " +
                     LongStream() + " --stream --window 8 --checkpoint " +
                     ck + " --out " + out + " > /dev/null 2>&1"),
            0);
  EXPECT_FALSE(fs::exists(ck)) << "checkpoint not removed on success";
  EXPECT_EQ(ReadImage(out), DirectReconstruction(LongStream()));
}

TEST_F(DaemonTest, HostileShardSpecIsAUsageErrorAtTheProcessBoundary) {
  for (const char* spec : {"0/0", "4/4", "-1/4", " 1/4", "0x1/4", "1//4"}) {
    EXPECT_EQ(RunShell(std::string("\"") + BACKBUSTER_BIN + "\" attack --in " +
                       SmallStream() + " --stream --shard \"" + spec +
                       "\" > /dev/null 2>&1"),
              2)
        << "spec '" << spec << "' must be a usage error (exit 2)";
  }
}

// --- malformed numeric options ----------------------------------------------
//
// A value the binary cannot use must fail the run as a usage error (exit 2)
// naming the flag, never fall back to the default.

// Runs `cmd` with stdout discarded and returns its exit code; its stderr
// lands in `err_path`.
int RunCapturingStderr(const std::string& cmd, const std::string& err_path) {
  return RunShell(cmd + " > /dev/null 2> " + err_path);
}

TEST_F(DaemonTest, BackbusterRejectsUnusableNumbers) {
  const std::string err = OutBase("attack.err");
  for (const auto& [flags, named] :
       std::vector<std::pair<std::string, std::string>>{
           {"--phi abc", "--phi"},
           {"--phi nan", "--phi"},
           {"--phi -5", "--phi"},
           {"--phi inf", "--phi"},
           {"--window 8x", "--window"}}) {
    EXPECT_EQ(RunCapturingStderr(std::string("\"") + BACKBUSTER_BIN +
                                     "\" attack --in " + SmallStream() +
                                     " --out " + OutBase("attack") + " " +
                                     flags,
                                 err),
              2)
        << flags;
    EXPECT_NE(ReadAll(err).find(named), std::string::npos)
        << flags << ": " << ReadAll(err);
  }
  EXPECT_TRUE(ReadImage(OutBase("attack")).empty());
}

TEST_F(DaemonTest, AttackctlRejectsUnusableNumbersWithoutSubmitting) {
  const std::string err = OutBase("submit.err");
  for (const auto& [flags, named] :
       std::vector<std::pair<std::string, std::string>>{
           {"--shards 3x", "--shards"},
           {"--phi abc", "--phi"},
           {"--phi nan", "phi"},
           {"--window 8.5", "--window"}}) {
    EXPECT_EQ(RunCapturingStderr(std::string("\"") + ATTACKCTL_BIN +
                                     "\" submit --spool " + root_ +
                                     " --in " + SmallStream() + " --out " +
                                     OutBase("job") + " " + flags,
                                 err),
              2)
        << flags;
    EXPECT_NE(ReadAll(err).find(named), std::string::npos)
        << flags << ": " << ReadAll(err);
  }
  EXPECT_EQ(RunCapturingStderr(std::string("\"") + ATTACKCTL_BIN +
                                   "\" wait --spool " + OutBase("no_spool") +
                                   " --timeout-ms 10s",
                               err),
            2);
  EXPECT_NE(ReadAll(err).find("--timeout-ms"), std::string::npos);
  // Nothing reached the spool.
  const auto incoming = ListJobs(root_, kIncomingDir);
  EXPECT_TRUE(!incoming.ok() || incoming->empty());
}

TEST_F(DaemonTest, AttackdRejectsUnusableNumbers) {
  const std::string err = OutBase("attackd.err");
  for (const char* flag : {"--max-workers", "--queue-depth", "--poll-ms"}) {
    EXPECT_EQ(RunCapturingStderr(std::string("\"") + ATTACKD_BIN +
                                     "\" --spool " + root_ +
                                     " --drain-once " + flag + " 3x",
                                 err),
              2)
        << flag;
    EXPECT_NE(ReadAll(err).find(flag), std::string::npos)
        << flag << ": " << ReadAll(err);
  }
}

}  // namespace
}  // namespace bb::service
