// attackd - the batch reconstruction daemon (DESIGN.md section 16).
//
//   attackd --spool DIR [options]
//       Owns the job spool at DIR: admits records dropped into
//       DIR/incoming/ (see attackctl), runs each job as shard worker
//       subprocesses of the backbuster binary with per-attempt watchdog
//       deadlines and deterministic retry/backoff, and quarantines
//       retry-exhausted jobs to DIR/failed/ with a structured reason.
//       SIGTERM/SIGINT drain gracefully: live workers seal their
//       checkpoints and the in-flight job returns to the queue; a
//       restarted daemon resumes it from DIR/work/<id>/.
#include <signal.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>

#include "cli/args.h"
#include "common/faultinject.h"
#include "common/trace.h"
#include "service/daemon.h"

using namespace bb;

namespace {

std::atomic<bool> g_drain{false};

void OnSignal(int) { g_drain.store(true, std::memory_order_relaxed); }

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::printf(
      "usage: attackd --spool DIR [options]\n"
      "  --spool DIR       job spool root (created if missing); submit\n"
      "                    jobs into it with `attackctl submit`\n"
      "  --worker-bin PATH backbuster binary workers exec (default: the\n"
      "                    backbuster next to this attackd)\n"
      "  --max-workers N   concurrent shard subprocesses per job\n"
      "                    (default 3)\n"
      "  --queue-depth N   admission bound over queued+running jobs;\n"
      "                    submissions past it are refused with a\n"
      "                    RESOURCE_EXHAUSTED reason (default 8)\n"
      "  --poll-ms N       supervisor poll interval (default 50)\n"
      "  --drain-once      exit once the spool has no runnable jobs\n"
      "                    instead of waiting for more\n"
      "  --trace FILE      write service counters/timings as JSON\n"
      "  --faults SPEC     deterministic fault injection (spawn@K=fail,\n"
      "                    spool@K=corrupt, write@K=truncate, ...)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args = cli::Args::Parse(argc, argv, {"help", "drain-once"});
  for (const auto& err : args.errors()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
  }
  if (!args.errors().empty()) return 2;
  if (args.GetFlag("help")) {
    (void)Usage();
    return 0;
  }

  service::DaemonOptions opts;
  const auto spool = args.Get("spool");
  if (!spool || spool->empty()) return Usage();
  opts.spool_root = *spool;
  opts.worker_bin = args.Get(
      "worker-bin",
      (std::filesystem::path(argv[0]).parent_path() / "backbuster").string());
  opts.max_workers = static_cast<int>(args.GetInt("max-workers", 3));
  opts.queue_depth = static_cast<int>(args.GetInt("queue-depth", 8));
  opts.poll_ms = static_cast<int>(args.GetInt("poll-ms", 50));
  opts.drain_once = args.GetFlag("drain-once");
  opts.drain = &g_drain;
  if (opts.max_workers < 1) return Fail("--max-workers must be >= 1");
  if (opts.queue_depth < 1) return Fail("--queue-depth must be >= 1");
  if (opts.poll_ms < 1) return Fail("--poll-ms must be >= 1");

  const auto trace_path = args.Get("trace");
  if (trace_path) {
    if (trace_path->empty()) return Fail("--trace expects a file path");
    trace::Enable();
  }
  if (const auto faults = args.Get("faults")) {
    if (faults->empty()) return Fail("--faults expects a schedule spec");
    if (const Status st = faultinject::Configure(*faults); !st.ok()) {
      return Fail(st.ToString());
    }
    std::fprintf(stderr, "fault injection active: %s\n", faults->c_str());
  }
  if (const int rc = args.RejectBadOptions()) return rc;

  // Graceful drain: the first SIGTERM/SIGINT checkpoints and requeues the
  // in-flight job, then exits cleanly.
  struct sigaction sa = {};
  sa.sa_handler = OnSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  service::Daemon daemon(opts);
  const Status run = daemon.Run();
  const service::DaemonStats& stats = daemon.stats();
  std::printf(
      "attackd: %d admitted, %d refused, %d done, %d failed, %d requeued, "
      "%d retries, %d timeouts, %d workers\n",
      stats.jobs_admitted, stats.jobs_refused, stats.jobs_done,
      stats.jobs_failed, stats.jobs_requeued, stats.retries,
      stats.worker_timeouts, stats.workers_spawned);
  if (g_drain.load(std::memory_order_relaxed)) {
    std::printf("attackd: drained on signal\n");
  }
  if (trace_path && !trace::WriteJson(*trace_path)) {
    return Fail("cannot write trace file " + *trace_path);
  }
  if (!run.ok()) return Fail(run.ToString());
  return 0;
}
