// attackctl - client CLI for the attackd job spool (DESIGN.md section 16).
//
//   attackctl submit --spool DIR --in call.bbv --out base [options]
//       Validates and seals a BBJB job record into DIR/incoming/, where a
//       running attackd picks it up. Prints the assigned job id.
//
//   attackctl status --spool DIR [--json]
//       Lists every job in the spool with its state, attempt history
//       length, and (for failed jobs) the structured refusal reason.
//
//   attackctl wait --spool DIR [--timeout-ms N]
//       Blocks until no job is incoming, queued, or running. Exit 0 when
//       the spool drained, 1 on timeout.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cli/args.h"
#include "common/trace.h"
#include "service/job.h"
#include "service/spool.h"

using namespace bb;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::printf(
      "usage: attackctl <command> --spool DIR [options]\n"
      "\n"
      "commands:\n"
      "  submit    queue a reconstruction job\n"
      "              --in FILE.bbv       stream to attack (required)\n"
      "              --out BASE          merged output image base (required)\n"
      "              --vb NAME           stock VB (beach|office|...);\n"
      "                                  default: derive from footage\n"
      "              --phi R             blending-blur radius (worker\n"
      "                                  default when omitted)\n"
      "              --window N          streaming window (default 64)\n"
      "              --shards N          worker fan-out, 1..256 (default 1)\n"
      "              --threads N         per-worker threads (default:\n"
      "                                  worker default)\n"
      "              --max-bad-frames B  per-job error budget (count or\n"
      "                                  percentage, e.g. 5 or 10%%)\n"
      "              --max-attempts N    retry budget (default 3)\n"
      "              --backoff-ms N      base retry delay; attempt k waits\n"
      "                                  N<<(k-1), capped 60s (default 250)\n"
      "              --deadline-ms N     per-attempt watchdog; 0 = none\n"
      "                                  (default 0)\n"
      "  status    print every job (--json for machine-readable output)\n"
      "  wait      block until the spool drains (--timeout-ms N)\n");
  return 2;
}

struct DirCount {
  const char* dir;
  std::vector<std::uint64_t> ids;
};

Result<std::vector<DirCount>> Scan(const std::string& root) {
  std::vector<DirCount> dirs;
  for (const char* dir :
       {service::kIncomingDir, service::kQueuedDir, service::kRunningDir,
        service::kDoneDir, service::kFailedDir}) {
    Result<std::vector<std::uint64_t>> ids = service::ListJobs(root, dir);
    if (!ids.ok()) return ids.status();
    dirs.push_back({dir, std::move(*ids)});
  }
  return dirs;
}

int Submit(const cli::Args& args, const std::string& spool) {
  service::JobSpec spec;
  const auto in = args.Get("in");
  const auto out = args.Get("out");
  if (!in || !out) return Fail("submit requires --in and --out");
  spec.input = *in;
  spec.output = *out;
  spec.vb = args.Get("vb", "");
  spec.phi = args.GetDouble("phi", 0.0);
  spec.window = static_cast<int>(args.GetInt("window", 64));
  spec.shards = static_cast<int>(args.GetInt("shards", 1));
  spec.threads = static_cast<int>(args.GetInt("threads", 0));
  spec.max_bad_frames = args.Get("max-bad-frames", "");
  spec.max_attempts = static_cast<int>(args.GetInt("max-attempts", 3));
  spec.backoff_ms = static_cast<int>(args.GetInt("backoff-ms", 250));
  spec.deadline_ms = static_cast<int>(args.GetInt("deadline-ms", 0));
  if (const int rc = args.RejectBadOptions()) return rc;
  if (const Status valid = service::ValidateSpec(spec); !valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.ToString().c_str());
    return 2;
  }
  if (const Status ready = service::EnsureSpool(spool); !ready.ok()) {
    return Fail(ready.ToString());
  }
  const Result<std::uint64_t> id = service::NextJobId(spool);
  if (!id.ok()) return Fail(id.status().ToString());
  service::JobRecord job;
  job.id = *id;
  job.state = service::JobState::kQueued;
  job.spec = spec;
  if (const Status saved = service::SaveJob(
          job, service::JobPath(spool, service::kIncomingDir, job.id));
      !saved.ok()) {
    return Fail(saved.ToString());
  }
  std::printf("submitted job %llu to %s (%d shard%s)\n",
              static_cast<unsigned long long>(job.id), spool.c_str(),
              spec.shards, spec.shards == 1 ? "" : "s");
  return 0;
}

int PrintStatus(const std::string& spool, bool json) {
  const Result<std::vector<DirCount>> dirs = Scan(spool);
  if (!dirs.ok()) return Fail(dirs.status().ToString());
  if (json) std::printf("{\"spool\":\"%s\",\"jobs\":[",
                        trace::EscapeJson(spool).c_str());
  bool first = true;
  for (const DirCount& dc : *dirs) {
    for (const std::uint64_t id : dc.ids) {
      const Result<service::JobRecord> job =
          service::LoadJob(service::JobPath(spool, dc.dir, id));
      if (json) {
        if (!first) std::printf(",");
        first = false;
        if (!job.ok()) {
          std::printf("{\"id\":%llu,\"dir\":\"%s\",\"unreadable\":\"%s\"}",
                      static_cast<unsigned long long>(id), dc.dir,
                      trace::EscapeJson(job.status().ToString()).c_str());
          continue;
        }
        std::printf(
            "{\"id\":%llu,\"dir\":\"%s\",\"state\":\"%s\","
            "\"input\":\"%s\",\"output\":\"%s\",\"shards\":%d,"
            "\"attempts\":%zu,\"final_reason\":\"%s\"}",
            static_cast<unsigned long long>(id), dc.dir,
            ToString(job->state),
            trace::EscapeJson(job->spec.input).c_str(),
            trace::EscapeJson(job->spec.output).c_str(), job->spec.shards,
            job->attempts.size(),
            trace::EscapeJson(job->final_reason).c_str());
        continue;
      }
      if (!job.ok()) {
        std::printf("%8llu  %-9s (unreadable: %s)\n",
                    static_cast<unsigned long long>(id), dc.dir,
                    job.status().ToString().c_str());
        continue;
      }
      std::printf("%8llu  %-9s %s -> %s  shards=%d attempts=%zu%s%s\n",
                  static_cast<unsigned long long>(id), dc.dir,
                  job->spec.input.c_str(), job->spec.output.c_str(),
                  job->spec.shards, job->attempts.size(),
                  job->final_reason.empty() ? "" : "  ",
                  job->final_reason.c_str());
    }
  }
  if (json) std::printf("]}\n");
  return 0;
}

int Wait(const cli::Args& args, const std::string& spool) {
  const long timeout_ms = args.GetInt("timeout-ms", 600000);
  if (const int rc = args.RejectBadOptions()) return rc;
  const double until =
      trace::MonotonicSeconds() + static_cast<double>(timeout_ms) / 1000.0;
  while (true) {
    const Result<std::vector<DirCount>> dirs = Scan(spool);
    if (!dirs.ok()) return Fail(dirs.status().ToString());
    std::size_t live = 0;
    for (const DirCount& dc : *dirs) {
      if (dc.dir == std::string(service::kDoneDir) ||
          dc.dir == std::string(service::kFailedDir)) {
        continue;
      }
      live += dc.ids.size();
    }
    if (live == 0) return 0;
    if (trace::MonotonicSeconds() > until) {
      return Fail("timeout: " + std::to_string(live) +
                  " job(s) still pending after " +
                  std::to_string(timeout_ms) + " ms");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args = cli::Args::Parse(argc, argv, {"help", "json"});
  for (const auto& err : args.errors()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
  }
  if (!args.errors().empty()) return 2;
  if (args.GetFlag("help")) {
    (void)Usage();
    return 0;
  }
  const auto spool = args.Get("spool");
  if (!spool || spool->empty()) return Usage();

  if (args.command() == "submit") return Submit(args, *spool);
  if (args.command() == "status") {
    const bool json = args.GetFlag("json");
    if (const int rc = args.RejectBadOptions()) return rc;
    return PrintStatus(*spool, json);
  }
  if (args.command() == "wait") return Wait(args, *spool);
  return Usage();
}
