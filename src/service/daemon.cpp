#include "service/daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/faultinject.h"
#include "common/trace.h"
#include "service/spool.h"

namespace bb::service {

namespace {

namespace fs = std::filesystem;

// Worker exit-code contract (see DESIGN.md section 16):
//   0  success
//   2  usage error - the job spec itself is unrunnable; never retried
//   3  interrupted with checkpoint sealed - resumable; consumes no
//      attempt budget
// Anything else (including -SIGNUM for signal deaths) is retryable.
constexpr int kExitUsage = 2;
constexpr int kExitInterrupted = 3;

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::string ShardStem(const JobRecord& job, int shard) {
  return "shard" + std::to_string(shard) + "of" +
         std::to_string(job.spec.shards);
}

std::string WorkDirOf(const std::string& root, std::uint64_t id) {
  return (fs::path(root) / kWorkDir / std::to_string(id)).string();
}

// One live subprocess under supervision.
struct Worker {
  pid_t pid = -1;
  int shard = -1;  // -1 = the reducer
};

// Launches `argv` with stdout+stderr appended to `log_path`. The "spawn"
// fault point fires here (occurrence-keyed, any kind = launch failure) so
// chaos schedules can exercise the retry path without a broken binary.
Result<pid_t> Spawn(const std::vector<std::string>& argv,
                    const std::string& log_path) {
  if (faultinject::Enabled() &&
      faultinject::At("spawn", faultinject::NextCount("spawn"))) {
    if (trace::Enabled()) trace::AddCounter("fault.injected.spawn", 1);
    return Status(StatusCode::kIoError, "injected spawn failure");
  }
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    return Status(StatusCode::kIoError, "fork failed for " + argv.front());
  }
  if (pid == 0) {
    const int log = ::open(log_path.c_str(),
                           O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    ::execv(cargv[0], cargv.data());
    ::_exit(127);  // exec failed; reaped as a retryable attempt failure
  }
  return pid;
}

// Blocking reap of one worker; exit status for normal exits, -SIGNUM for
// signal deaths, 127-ish codes pass through.
int Reap(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return -WTERMSIG(status);
  return -1;
}

// Non-blocking: true (and the decoded code) when `pid` has exited.
bool TryReap(pid_t pid, int* code) {
  int status = 0;
  const pid_t got = ::waitpid(pid, &status, WNOHANG);
  if (got != pid) return false;
  if (WIFEXITED(status)) {
    *code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    *code = -WTERMSIG(status);
  } else {
    *code = -1;
  }
  return true;
}

void SignalAll(const std::vector<Worker>& live, int signum) {
  for (const Worker& w : live) {
    if (w.pid > 0) ::kill(w.pid, signum);
  }
}

}  // namespace

Status Daemon::Run() {
  if (const Status ready = EnsureSpool(opts_.spool_root); !ready.ok()) {
    return ready;
  }
  // Single-instance advisory lock: two daemons racing one spool would
  // double-run jobs. The descriptor is deliberately inherited by shard
  // workers (no O_CLOEXEC): a worker orphaned by a kill -9 of the daemon
  // keeps the spool fenced until it exits, so a restarted daemon cannot
  // requeue a job that worker is still writing.
  const std::string lock_path =
      (fs::path(opts_.spool_root) / "daemon.lock").string();
  const int lock_fd = ::open(lock_path.c_str(), O_CREAT | O_RDWR, 0644);
  if (lock_fd < 0) {
    return Status(StatusCode::kIoError, "cannot open " + lock_path);
  }
  if (::flock(lock_fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(lock_fd);
    return Status(StatusCode::kFailedPrecondition,
                  "spool " + opts_.spool_root +
                      " is locked: daemon.lock is held by another attackd "
                      "or by a shard worker a killed attackd started; "
                      "retry once it exits");
  }

  {
    trace::ScopedTimer recover_timer("service.recover");
    const Result<RecoveryReport> recovered = RecoverSpool(opts_.spool_root);
    if (!recovered.ok()) {
      ::close(lock_fd);
      return recovered.status();
    }
    stats_.jobs_requeued += recovered->requeued;
    if (trace::Enabled() && recovered->requeued > 0) {
      trace::AddCounter("service.jobs_requeued",
                        static_cast<std::uint64_t>(recovered->requeued));
    }
  }

  Status result = OkStatus();
  while (true) {
    if (opts_.drain != nullptr &&
        opts_.drain->load(std::memory_order_relaxed)) {
      break;
    }
    if (const Status admitted = Admit(); !admitted.ok()) {
      result = admitted;
      break;
    }
    const Result<std::vector<std::uint64_t>> queued =
        ListJobs(opts_.spool_root, kQueuedDir);
    if (!queued.ok()) {
      result = queued.status();
      break;
    }
    if (queued->empty()) {
      if (opts_.drain_once) break;
      SleepMs(opts_.poll_ms);
      continue;
    }

    const std::uint64_t id = queued->front();
    Result<JobRecord> job = LoadJob(JobPath(opts_.spool_root, kQueuedDir, id));
    if (!job.ok()) {
      // A queued record the daemon itself sealed went unreadable
      // (injected spool fault or real corruption): quarantine the bytes
      // so the queue never wedges on it.
      std::error_code ec;
      fs::rename(JobPath(opts_.spool_root, kQueuedDir, id),
                 JobPath(opts_.spool_root, kFailedDir, id) + ".corrupt", ec);
      if (ec) {
        result = Status(StatusCode::kIoError,
                        "cannot quarantine unreadable queued job " +
                            std::to_string(id));
        break;
      }
      ++stats_.jobs_failed;
      if (trace::Enabled()) trace::AddCounter("service.jobs_failed", 1);
      continue;
    }
    job->state = JobState::kRunning;
    if (const Status moved =
            MoveJob(*job, opts_.spool_root, kQueuedDir, kRunningDir);
        !moved.ok()) {
      result = moved;
      break;
    }
    const Result<JobOutcome> outcome = RunJob(&*job);
    if (!outcome.ok()) {
      result = outcome.status();
      break;
    }
    if (*outcome == JobOutcome::kDrained) break;
  }

  ::flock(lock_fd, LOCK_UN);
  ::close(lock_fd);
  return result;
}

Status Daemon::Admit() {
  const Result<std::vector<std::uint64_t>> incoming =
      ListJobs(opts_.spool_root, kIncomingDir);
  if (!incoming.ok()) return incoming.status();
  for (const std::uint64_t id : *incoming) {
    const std::string in_path = JobPath(opts_.spool_root, kIncomingDir, id);
    Result<JobRecord> job = LoadJob(in_path);

    const auto refuse = [&](JobRecord refused, const std::string& reason)
        -> Status {
      refused.id = id;
      refused.state = JobState::kFailed;
      refused.final_reason = reason;
      if (const Status moved =
              MoveJob(refused, opts_.spool_root, kIncomingDir, kFailedDir);
          !moved.ok()) {
        return moved;
      }
      ++stats_.jobs_refused;
      if (trace::Enabled()) trace::AddCounter("service.jobs_refused", 1);
      return OkStatus();
    };

    if (!job.ok()) {
      // Hostile or damaged submission. The record's own claims are
      // untrusted, so the refusal carries a placeholder spec (which is
      // what makes the failed/ record loadable for `attackctl status`).
      JobRecord placeholder;
      placeholder.spec.input = "(unreadable submission)";
      placeholder.spec.output = "(unreadable submission)";
      if (const Status refused =
              refuse(placeholder,
                     "INVALID_JOB_RECORD: " + job.status().ToString());
          !refused.ok()) {
        return refused;
      }
      continue;
    }

    std::error_code ec;
    if (!fs::exists(job->spec.input, ec) || ec) {
      if (const Status refused =
              refuse(*job, "NOT_FOUND: job input " + job->spec.input +
                               " does not exist");
          !refused.ok()) {
        return refused;
      }
      continue;
    }

    const Result<std::vector<std::uint64_t>> queued =
        ListJobs(opts_.spool_root, kQueuedDir);
    if (!queued.ok()) return queued.status();
    const Result<std::vector<std::uint64_t>> running =
        ListJobs(opts_.spool_root, kRunningDir);
    if (!running.ok()) return running.status();
    const int depth =
        static_cast<int>(queued->size()) + static_cast<int>(running->size());
    if (depth >= opts_.queue_depth) {
      if (const Status refused = refuse(
              *job, "RESOURCE_EXHAUSTED: queue depth " +
                        std::to_string(opts_.queue_depth) + " is full (" +
                        std::to_string(depth) + " jobs queued or running)");
          !refused.ok()) {
        return refused;
      }
      continue;
    }

    job->state = JobState::kQueued;
    if (const Status moved =
            MoveJob(*job, opts_.spool_root, kIncomingDir, kQueuedDir);
        !moved.ok()) {
      return moved;
    }
    ++stats_.jobs_admitted;
    if (trace::Enabled()) trace::AddCounter("service.jobs_admitted", 1);
  }
  return OkStatus();
}

Result<Daemon::JobOutcome> Daemon::RunJob(JobRecord* job) {
  const std::string workdir = WorkDirOf(opts_.spool_root, job->id);
  std::error_code ec;
  fs::create_directories(workdir, ec);
  if (ec) {
    return Status(StatusCode::kIoError,
                  "cannot create job workdir " + workdir);
  }

  const auto finish = [&](JobState state, const std::string& reason,
                          JobOutcome outcome) -> Result<JobOutcome> {
    job->state = state;
    job->final_reason = reason;
    const char* dest = state == JobState::kDone ? kDoneDir : kFailedDir;
    if (state == JobState::kQueued) dest = kQueuedDir;
    if (const Status moved =
            MoveJob(*job, opts_.spool_root, kRunningDir, dest);
        !moved.ok()) {
      return moved;
    }
    if (trace::Enabled()) {
      if (state == JobState::kDone) {
        trace::AddCounter("service.jobs_done", 1);
      } else if (state == JobState::kFailed) {
        trace::AddCounter("service.jobs_failed", 1);
      }
    }
    if (state == JobState::kDone) ++stats_.jobs_done;
    if (state == JobState::kFailed) ++stats_.jobs_failed;
    return outcome;
  };

  // Attempts that exited kExitInterrupted (drain) consume no budget.
  const auto spent = [job] {
    int n = 0;
    for (const JobAttempt& a : job->attempts) {
      if (a.exit_code != 0 && a.exit_code != kExitInterrupted) ++n;
    }
    return n;
  };

  while (spent() < job->spec.max_attempts) {
    const int delay_ms = BackoffDelayMs(job->spec, spent());
    if (delay_ms > 0) {
      // Interruptible backoff sleep: a drain request must not wait out
      // the whole schedule.
      const double until =
          trace::MonotonicSeconds() + static_cast<double>(delay_ms) / 1000.0;
      while (trace::MonotonicSeconds() < until) {
        if (opts_.drain != nullptr &&
            opts_.drain->load(std::memory_order_relaxed)) {
          return finish(JobState::kQueued, "", JobOutcome::kDrained);
        }
        SleepMs(opts_.poll_ms);
      }
    }
    if (spent() > 0) {
      ++stats_.retries;
      if (trace::Enabled()) trace::AddCounter("service.retries", 1);
    }

    trace::ScopedTimer attempt_timer("service.attempt");
    JobAttempt attempt;
    attempt.delay_ms = delay_ms;

    // Shards whose sealed partial already exists (an earlier attempt or a
    // pre-crash daemon finished them) are skipped outright; the rest
    // resume from their own checkpoints.
    std::vector<int> pending;
    std::vector<std::string> partials;
    for (int shard = 0; shard < job->spec.shards; ++shard) {
      const std::string partial =
          (fs::path(workdir) / (ShardStem(*job, shard) + ".bbpr")).string();
      partials.push_back(partial);
      if (!fs::exists(partial, ec) || ec) pending.push_back(shard);
    }

    const double attempt_start = trace::MonotonicSeconds();
    const double deadline =
        job->spec.deadline_ms > 0
            ? attempt_start + static_cast<double>(job->spec.deadline_ms) /
                                  1000.0
            : 0.0;
    std::vector<Worker> live;
    bool draining = false;
    bool timed_out = false;
    int first_bad_code = 0;
    std::string first_bad_reason;
    std::size_t next_pending = 0;

    const auto fail_fast = [&](int code, const std::string& reason) {
      if (first_bad_code == 0) {
        first_bad_code = code;
        first_bad_reason = reason;
      }
      // Stop the siblings gently; they seal checkpoints and exit 3.
      SignalAll(live, SIGTERM);
    };

    while (!live.empty() || (next_pending < pending.size() &&
                             first_bad_code == 0 && !draining &&
                             !timed_out)) {
      if (!draining && opts_.drain != nullptr &&
          opts_.drain->load(std::memory_order_relaxed)) {
        draining = true;
        SignalAll(live, SIGTERM);
      }
      if (!timed_out && deadline > 0.0 &&
          trace::MonotonicSeconds() > deadline) {
        timed_out = true;
        ++stats_.worker_timeouts;
        if (trace::Enabled()) {
          trace::AddCounter("service.worker_timeouts", 1);
        }
        SignalAll(live, SIGKILL);
      }

      // Reap.
      for (std::size_t i = 0; i < live.size();) {
        int code = 0;
        if (!TryReap(live[i].pid, &code)) {
          ++i;
          continue;
        }
        const int shard = live[i].shard;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        if (code != 0 && code != kExitInterrupted && !timed_out &&
            !draining) {
          fail_fast(code, "shard " + std::to_string(shard) + " exited " +
                              std::to_string(code) + " (see " + workdir +
                              "/" + ShardStem(*job, shard) + ".log)");
        }
      }

      // Launch.
      while (!draining && !timed_out && first_bad_code == 0 &&
             next_pending < pending.size() &&
             static_cast<int>(live.size()) < opts_.max_workers) {
        const int shard = pending[next_pending];
        const std::string stem = ShardStem(*job, shard);
        std::vector<std::string> argv = {
            opts_.worker_bin,
            "attack",
            "--in", job->spec.input,
            "--stream",
            "--window", std::to_string(job->spec.window),
            "--shard",
            std::to_string(shard) + "/" + std::to_string(job->spec.shards),
            "--checkpoint", (fs::path(workdir) / (stem + ".bbck")).string(),
            "--partial-out", partials[static_cast<std::size_t>(shard)],
        };
        if (!job->spec.vb.empty()) {
          argv.insert(argv.end(), {"--vb", job->spec.vb});
        }
        if (job->spec.phi > 0.0) {
          argv.insert(argv.end(), {"--phi", std::to_string(job->spec.phi)});
        }
        if (!job->spec.max_bad_frames.empty()) {
          argv.insert(argv.end(),
                      {"--max-bad-frames", job->spec.max_bad_frames});
        }
        if (job->spec.threads > 0) {
          argv.insert(argv.end(),
                      {"--threads", std::to_string(job->spec.threads)});
        }
        const Result<pid_t> pid =
            Spawn(argv, (fs::path(workdir) / (stem + ".log")).string());
        ++next_pending;
        if (!pid.ok()) {
          fail_fast(127, "shard " + std::to_string(shard) +
                             " failed to launch: " + pid.status().message());
          break;
        }
        ++stats_.workers_spawned;
        if (trace::Enabled()) {
          trace::AddCounter("service.workers_spawned", 1);
        }
        live.push_back({*pid, shard});
      }

      if (!live.empty()) SleepMs(opts_.poll_ms);
    }

    if (draining) {
      attempt.exit_code = kExitInterrupted;
      attempt.reason = "drained: workers checkpointed and exited on SIGTERM";
      job->attempts.push_back(attempt);
      return finish(JobState::kQueued, "", JobOutcome::kDrained);
    }
    if (timed_out) {
      attempt.exit_code = -SIGKILL;
      attempt.reason = "watchdog: attempt exceeded deadline of " +
                       std::to_string(job->spec.deadline_ms) + " ms";
      job->attempts.push_back(attempt);
      if (const Status saved = SaveJob(
              *job, JobPath(opts_.spool_root, kRunningDir, job->id));
          !saved.ok()) {
        return saved;
      }
      continue;
    }
    if (first_bad_code != 0) {
      attempt.exit_code = first_bad_code;
      attempt.reason = first_bad_reason;
      job->attempts.push_back(attempt);
      if (first_bad_code == kExitUsage) {
        return finish(JobState::kFailed,
                      "INVALID_ARGUMENT: worker rejected the job spec: " +
                          first_bad_reason,
                      JobOutcome::kFailed);
      }
      if (const Status saved = SaveJob(
              *job, JobPath(opts_.spool_root, kRunningDir, job->id));
          !saved.ok()) {
        return saved;
      }
      continue;
    }

    // Every shard partial is sealed; merge. The reducer runs under the
    // same supervision contract as the shards.
    {
      trace::ScopedTimer reduce_timer("service.reduce");
      std::string csv;
      for (const std::string& p : partials) {
        if (!csv.empty()) csv += ',';
        csv += p;
      }
      const std::vector<std::string> argv = {
          opts_.worker_bin, "reduce", "--in", csv, "--out", job->spec.output,
      };
      const Result<pid_t> pid =
          Spawn(argv, (fs::path(workdir) / "reduce.log").string());
      if (!pid.ok()) {
        attempt.exit_code = 127;
        attempt.reason = "reduce failed to launch: " + pid.status().message();
        job->attempts.push_back(attempt);
        if (const Status saved = SaveJob(
                *job, JobPath(opts_.spool_root, kRunningDir, job->id));
            !saved.ok()) {
          return saved;
        }
        continue;
      }
      ++stats_.workers_spawned;
      if (trace::Enabled()) trace::AddCounter("service.workers_spawned", 1);
      const int code = Reap(*pid);
      if (code != 0) {
        attempt.exit_code = code;
        attempt.reason = "reduce exited " + std::to_string(code) + " (see " +
                         workdir + "/reduce.log)";
        job->attempts.push_back(attempt);
        if (code == kExitUsage) {
          return finish(JobState::kFailed,
                        "INVALID_ARGUMENT: reduce rejected the partials: " +
                            attempt.reason,
                        JobOutcome::kFailed);
        }
        if (const Status saved = SaveJob(
                *job, JobPath(opts_.spool_root, kRunningDir, job->id));
            !saved.ok()) {
          return saved;
        }
        continue;
      }
    }

    attempt.exit_code = 0;
    job->attempts.push_back(attempt);
    return finish(JobState::kDone, "", JobOutcome::kDone);
  }

  const std::string last = job->attempts.empty()
                               ? std::string("(no attempts recorded)")
                               : job->attempts.back().reason;
  return finish(JobState::kFailed,
                "RETRY_EXHAUSTED: " + std::to_string(job->spec.max_attempts) +
                    " attempt(s) failed; last: " + last,
                JobOutcome::kFailed);
}

}  // namespace bb::service
