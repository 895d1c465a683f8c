// Deterministic fault injection (DESIGN.md "Fault tolerance").
//
// A process-wide, schedule-driven fault registry with the same discipline as
// trace.h: zero overhead when disabled (Enabled() is a relaxed atomic load
// and a branch - no lock, no lookup, no allocation), and observation-free
// when enabled (a fired fault changes only the instrumented call's outcome,
// never unrelated state).
//
// Schedules are exact, not probabilistic, so every failure a test provokes
// is replayable: the spec
//
//     read@7=truncate,read@19=corrupt,alloc@3=fail,source@4=fail
//
// makes the .bbv reader fail frame 7 as a short read and frame 19 as a
// payload-integrity failure, the 4th BufferPool allocation throw
// std::bad_alloc, and any FrameSource report frame 4 as bad. Injection
// points in the tree:
//
//     "source" - FrameSource::Pull, keyed by the pull's frame index
//     "read"   - BbvFileSource's decoder, keyed by frame index
//     "alloc"  - BufferPool::AcquireImage/AcquireBitmap, keyed by a
//                process-wide acquisition counter (NextCount)
//     "write"  - common::AtomicWriteFile (checkpoint/partial/job-record
//                seals), occurrence-keyed; kinds fail / truncate (short
//                temp write, never renamed) / corrupt (one flipped byte
//                the loader's checksum must catch)
//     "spawn"  - attackd's worker-subprocess launcher, occurrence-keyed;
//                any kind makes the spawn report failure
//     "spill"  - the streaming core's mask-store spill file, occurrence-
//                keyed over every record write and read-back; any kind
//                fails that operation
//     "spool"  - attackd's job-record loader, occurrence-keyed; kinds
//                fail / truncate / corrupt, applied to the loaded bytes
//
// Frame-keyed points use At(), a pure lookup: the fault fires every time
// that frame index is pulled, on every pass, which is what keeps multi-pass
// consumers (StreamingReconstructor) self-consistent - a frame that is bad
// is bad in every pass. Counter-keyed points consume NextCount() instead.
//
// Enablement: `backbuster --faults <spec>` or the BB_FAULTS environment
// variable (read once at startup for any binary linking this TU).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/status.h"

namespace bb::faultinject {

enum class FaultKind {
  kFail,      // the operation errors outright (I/O error, bad_alloc)
  kTruncate,  // the payload ends early (short read)
  kCorrupt,   // the payload is present but fails integrity checking
};

const char* ToString(FaultKind kind);

// True when a non-empty schedule is installed. The fast path every
// instrumentation site checks first.
bool Enabled();

// Parses `spec` (comma-separated point@key=kind entries; see above) and
// installs it as the process-wide schedule, replacing any previous one.
// An empty spec clears the schedule. On a malformed spec the previous
// schedule is left untouched and the error names the offending entry.
Status Configure(std::string_view spec);

// Removes the schedule; Enabled() becomes false.
void Clear();

// The fault scheduled at (point, key), if any. A pure lookup - nothing is
// consumed, so frame-keyed faults fire identically on every pass.
std::optional<FaultKind> At(std::string_view point, std::int64_t key);

// Returns the current occurrence count for `point` and increments it, for
// injection points with no natural replayable key. Counts survive Clear()
// within a Configure() generation but reset on Configure(), so a schedule
// always starts from occurrence zero.
std::int64_t NextCount(std::string_view point);

// Number of faults fired since the schedule was installed (for smoke checks
// that a schedule actually engaged).
std::uint64_t FiredCount();

}  // namespace bb::faultinject
