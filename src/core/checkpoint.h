// Streaming-run checkpoints (DESIGN.md "Fault tolerance").
//
// A checkpoint captures everything StreamingReconstructor needs to resume
// an interrupted run with bit-identical final output: the stream identity,
// the run's decomposition range (a shard worker checkpoints exactly like a
// whole-stream run; see DESIGN.md section 14), how far the final
// (accumulation) pass has progressed, the quarantine list, the combined
// leak accumulators, and the per-frame leak fractions produced so far. The
// cheap analysis/caller passes are deterministic and are simply re-run on
// resume; only the expensive decomposition work is skipped. Because every
// accumulator sum is integer-valued (uint8 samples and their squares added
// in doubles), the combined totals are exact and a resumed run may even use
// a different thread count or window size without perturbing a single
// output bit.
//
// File format "BBCK" version 3 (all integers little-endian; doubles as
// IEEE-754 bit patterns):
//
//   magic      "BBCK"                      4 bytes
//   version    u32 = 3
//   width      u32  -+
//   height     u32   | stream identity; resume refuses a checkpoint
//   frames     u32   | whose identity mismatches the source
//   fps_mhz    u32  -+
//   frames_done u32          every frame index below this (and at or above
//                            shard_begin) is decomposed (or quarantined)
//                            and must not be re-pushed
//   shard_begin u32 -+ decomposition range of the writing run; resume
//   shard_end   u32 -+ refuses a checkpoint from a different shard range
//   config_hash u64          ConfigHash(recon options, config salt) of the
//                            writing run, the hash BBPR partials carry;
//                            resume refuses a checkpoint written with
//                            other options or another VB reference
//   quarantine u32 count, then count ascending u32 frame indices
//   pixels     u64           width*height (redundant; checked)
//   counts     pixels * u64
//   sum_r/g/b, sum_r2/g2/b2   pixels * f64 each, in that order
//   per_frame  frames * f64   leak fraction per frame
//   checksum   u64            FNV-1a 64 over every preceding byte
//
// Version 1 lacked the shard range and version 2 the config hash; both
// are refused with a structured version mismatch and the run starts
// fresh. Window size and thread count stay outside the hash: they cannot
// change an output bit.
//
// Writes are crash-consistent: the file is written to "<path>.tmp" and
// renamed into place, so a kill mid-write leaves the previous checkpoint
// intact. Loads treat the file as hostile input - truncation, version
// skew, or bit flips yield a structured error, never a crash.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/partial.h"
#include "video/frame_source.h"

namespace bb::core {

struct CheckpointState {
  video::StreamInfo info;
  int frames_done = 0;
  // Decomposition range [shard_begin, shard_end) of the run that wrote the
  // checkpoint ([0, frames) for a whole-stream run).
  int shard_begin = 0;
  int shard_end = 0;
  // ConfigHash of the writing run's reconstruction options and salt.
  std::uint64_t config_hash = 0;
  std::vector<int> quarantined;  // ascending frame indices
  LeakAccumulators acc;          // combined per-pixel leak evidence
  std::vector<double> per_frame_leak_fraction;
};

// Serializes `state` to `path` via write-temp-then-rename.
Status SaveCheckpoint(const CheckpointState& state, const std::string& path);

// Parses and validates `path`. kNotFound when the file does not exist
// (callers start fresh); kDataLoss / kFailedPrecondition on corrupt or
// version-mismatched contents (callers should also start fresh, but can
// report why the checkpoint was discarded).
Result<CheckpointState> LoadCheckpoint(const std::string& path);

}  // namespace bb::core
