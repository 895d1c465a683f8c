// Crash-consistent file writes shared by every sealed on-disk format
// (BBPR partials and checkpoints, BBJB job records).
//
// AtomicWriteFile writes `bytes` to "<path>.tmp" and renames it into place,
// so a crash at any instant leaves either the previous file or the new one
// - never a truncated hybrid - and a failed write never makes a partial
// payload visible at `path`.
//
// The "write" fault-injection point (occurrence-keyed, like "alloc") makes
// the discipline chaos-testable:
//   write@K=fail      the K-th write errors before touching the filesystem
//   write@K=truncate  the K-th write stops halfway through the temp file
//                     and reports failure; the temp file is left behind but
//                     never renamed into place
//   write@K=corrupt   the K-th write flips one payload byte and succeeds -
//                     silent media corruption the reader's checksum must
//                     catch at load time
#pragma once

#include <string>
#include <string_view>

#include "common/status.h"

namespace bb::common {

// Writes `bytes` to `path` via write-temp-then-rename. `what` names the
// payload kind in error messages ("partial", "job").
Status AtomicWriteFile(const std::string& bytes, const std::string& path,
                       std::string_view what);

}  // namespace bb::common
