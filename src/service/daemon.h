// attackd's supervisor loop (DESIGN.md section 16).
//
// The daemon owns one spool (spool.h) and drives jobs through it:
//
//   admit    incoming/ records are loaded as hostile input and either
//            admitted to queued/ or refused to failed/ with a structured
//            final_reason (unreadable record, missing input, or
//            RESOURCE_EXHAUSTED when queued+running is at queue_depth)
//   run      the lowest-id queued job moves to running/ and executes as
//            spec.shards `backbuster attack --stream --shard i/N` worker
//            subprocesses (at most max_workers concurrent), each writing
//            its own checkpoint and partial under work/<id>/; completed
//            partials are skipped on retry, so attempts resume instead of
//            restarting. A final `backbuster reduce` merges the partials
//            into output bit-identical to a single-process attack; when it
//            fails (other than a usage error) the partials are removed so
//            the retry recomputes them.
//   watch    when spec.deadline_ms > 0, an attempt that outlives it has
//            its workers SIGKILLed and the attempt recorded as exit -9.
//   retry    failed attempts are retried on the deterministic schedule of
//            BackoffDelayMs until the budget of spec.max_attempts
//            attempts is spent; then the job is quarantined to failed/
//            with a RETRY_EXHAUSTED final_reason. A worker exiting 2
//            (usage error) fails the job permanently without retries, and
//            exit 3 (interrupted with checkpoint sealed) never consumes
//            attempt budget.
//   drain    when *opts.drain becomes true (the SIGTERM handler's flag),
//            live workers get SIGTERM, seal their checkpoints, and exit
//            3; the job returns to queued/ and Run() returns. A restarted
//            daemon resumes it from the sealed work/<id>/ scratch.
//
// One daemon per spool, enforced with an advisory flock on
// <root>/daemon.lock. Chaos hooks: the "spawn" fault point fails worker
// launches, "spool" corrupts record loads, "write" breaks record seals.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "common/status.h"
#include "service/job.h"

namespace bb::service {

struct DaemonOptions {
  std::string spool_root;
  std::string worker_bin;  // the backbuster binary workers exec
  int max_workers = 3;     // concurrent shard subprocesses per job
  int queue_depth = 8;     // admission bound over queued/ + running/
  int poll_ms = 50;        // supervisor poll interval
  bool drain_once = false;  // exit once the spool has no runnable jobs
  // SIGTERM/SIGINT graceful-drain flag; may be null (never drains).
  const std::atomic<bool>* drain = nullptr;
};

struct DaemonStats {
  int jobs_admitted = 0;
  int jobs_refused = 0;
  int jobs_done = 0;
  int jobs_failed = 0;
  int jobs_requeued = 0;   // cold-start recovery of orphaned running/ jobs
  int retries = 0;         // attempts after the first, per job, summed
  int worker_timeouts = 0;  // watchdog SIGKILLs
  int workers_spawned = 0;  // shard + reduce subprocesses launched
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions opts) : opts_(std::move(opts)) {}

  // Recovers the spool, then loops admit/run until drained (drain_once)
  // or the drain flag fires. Returns kFailedPrecondition without touching
  // the spool when another daemon holds the lock.
  Status Run();

  const DaemonStats& stats() const { return stats_; }

 private:
  enum class JobOutcome { kDone, kFailed, kDrained };

  Status Admit();
  Result<JobOutcome> RunJob(JobRecord* job);

  DaemonOptions opts_;
  DaemonStats stats_;
};

}  // namespace bb::service
