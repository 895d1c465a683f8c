// On-disk job spool for attackd (DESIGN.md section 16).
//
// The spool is a directory tree whose subdirectory IS the job state —
// there is no separate index to drift out of sync:
//
//   <root>/incoming/   client drop-box; records the daemon has not seen
//   <root>/queued/     admitted, waiting for a supervisor slot
//   <root>/running/    owned by the live supervisor
//   <root>/done/       merged output sealed; terminal
//   <root>/failed/     refused or retry-exhausted; terminal, with a
//                      structured final_reason in the record
//   <root>/work/<id>/  per-job scratch: shard checkpoints (.bbck) and
//                      partials (.bbpr), both BBPR files, worker logs
//
// Every record is a sealed BBJB file named <id>.bbjb. A state transition
// is "write the record into the destination directory (atomically, via
// temp-then-rename), then unlink the source" — so a crash between the two
// steps leaves the job visible in BOTH directories, never in neither.
// RecoverSpool resolves such duplicates by terminal-state precedence
// (done > failed > running > queued > incoming) and requeues running/
// records, whose supervisor died with them, back to queued/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "service/job.h"

namespace bb::service {

inline constexpr const char* kIncomingDir = "incoming";
inline constexpr const char* kQueuedDir = "queued";
inline constexpr const char* kRunningDir = "running";
inline constexpr const char* kDoneDir = "done";
inline constexpr const char* kFailedDir = "failed";
inline constexpr const char* kWorkDir = "work";

// Creates the spool root and every state directory (mkdir -p semantics).
Status EnsureSpool(const std::string& root);

// <root>/<dir>/<id>.bbjb
std::string JobPath(const std::string& root, const char* dir,
                    std::uint64_t id);

// Job ids present in <root>/<dir>, ascending. Non-.bbjb names and
// non-numeric stems are ignored (the directory may hold .tmp files from
// an interrupted atomic write).
Result<std::vector<std::uint64_t>> ListJobs(const std::string& root,
                                            const char* dir);

// One spool transition: seal `job` into <root>/<to>/<id>.bbjb, then
// unlink <root>/<from>/<id>.bbjb. Write-then-remove, so a crash in
// between duplicates the record instead of losing it.
Status MoveJob(const JobRecord& job, const std::string& root,
               const char* from, const char* to);

// What cold-start recovery found and fixed.
struct RecoveryReport {
  int duplicates_dropped = 0;  // lower-precedence copies unlinked
  int requeued = 0;            // running/ -> queued/ (supervisor died)
};

// Scans every state directory, resolves crash-window duplicates by
// precedence (done > failed > running > queued > incoming), and requeues
// orphaned running/ jobs. Idempotent; called once before the daemon
// starts admitting.
Result<RecoveryReport> RecoverSpool(const std::string& root);

// max(id over every state directory) + 1; 1 for an empty spool.
Result<std::uint64_t> NextJobId(const std::string& root);

}  // namespace bb::service
