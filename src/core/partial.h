// Sealed reconstruction state for sharded and checkpointed runs (DESIGN.md
// sections 11 and 14).
//
// A BBPR file holds the leak accumulators, quarantine set, and per-frame
// leak fractions a run produced while decomposing frames [range_begin,
// frames_done) of its range [range_begin, range_end) of a stream, plus
// everything needed to refuse a wrong merge or resume - the stream
// identity, a config hash over every output-relevant reconstruction
// option, the resolved error budget, and the finalize parameters
// (min_leak_count / max_color_spread) stored explicitly so `backbuster
// reduce` is self-contained. A shard worker's sealed output has
// frames_done == range_end; a checkpoint is the same object short of its
// range end, which StreamingReconstructor resumes from and the reducer
// refuses. Because every accumulator sum is integer-valued (uint8 samples
// and their squares added in doubles), merging partials is exact and
// arrival-order-invariant, and K merged partials finalize to the same bits
// as one uninterrupted run (core/reduce.h holds the merger and the shared
// pixel finalization).
//
// File format "BBPR" version 2 (integers little-endian; doubles as
// IEEE-754 bit patterns):
//
//   magic        "BBPR"                            bytes 0-3
//   version      u32 = 2                           bytes 4-7
//   width        u32  -+                           bytes 8-11
//   height       u32   | stream identity; the      bytes 12-15
//   frames       u32   | reducer and resume refuse bytes 16-19
//   fps_mhz      u32  -+ another stream's state    bytes 20-23
//   config_hash  u64   reconstruction-option hash  bytes 24-31
//   range_begin  u32  -+ decomposition range       bytes 32-35
//   range_end    u32  -+ [begin, end)              bytes 36-39
//   bad_budget   u32   two's-complement i32;       bytes 40-43
//                      0xFFFFFFFF = unlimited
//   min_leak     u32   finalize: min_leak_count    bytes 44-47
//   color_spread f64   finalize: max_color_spread  bytes 48-55
//   bad_events   u64   bad pushes/pulls, all passes bytes 56-63
//   frames_done  u32   every range frame below it  bytes 64-67
//                      is decomposed or quarantined; in
//                      [range_begin, range_end], == range_end when finished
//   quarantine   u32 count (bytes 68-71), then count ascending u32 frame
//                indices (full-stream indices - quarantine is a whole-run
//                fact)
//   pixels       u64   width*height (redundant; checked)
//   counts       pixels * u64
//   sum_r/g/b, sum_r2/g2/b2   pixels * f64 each, in that order
//   per_frame    (range_end - range_begin) * f64   leak fraction per
//                frame of the range, in frame order (0 past frames_done)
//   checksum     u64   FNV-1a 64 over every preceding byte
//
// Version 1 lacked frames_done and is refused with a structured version
// mismatch, as is a file with the retired "BBCK" checkpoint magic of older
// builds; a checkpoint so refused makes the run start fresh. Writes are
// crash-consistent (common::AtomicWriteFile: write-temp-then-rename, so a
// kill mid-write leaves the previous generation intact). Loads treat the
// file as hostile input: the checksum is verified before any field is
// trusted, and every rejection names the offending byte range.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/reconstruction.h"
#include "video/frame_source.h"

namespace bb::core {

// Per-pixel leak evidence: observation counts plus per-channel sums of the
// observed values and their squares. All sums are integer-valued (uint8
// samples and their squares added in doubles), so Add() is exact and a
// sequence of Add() calls produces the same bits in any order.
struct LeakAccumulators {
  std::vector<int> counts;
  std::vector<double> sum_r, sum_g, sum_b;
  std::vector<double> sum_r2, sum_g2, sum_b2;

  std::size_t pixels() const { return counts.size(); }
  void Zero(std::size_t pixels);
  // Element-wise `this += other`; the accumulators must be the same size.
  void Add(const LeakAccumulators& other);
};

struct PartialResult {
  video::StreamInfo info;
  std::uint64_t config_hash = 0;
  int range_begin = 0;  // decomposition range [range_begin, range_end)
  int range_end = 0;
  // Frames [range_begin, frames_done) are decomposed (or quarantined);
  // below range_end the file is a checkpoint, not a mergeable partial.
  int frames_done = 0;
  int bad_budget = -1;  // resolved error budget; -1 = unlimited
  int min_leak_count = 0;
  double max_color_spread = 0.0;
  std::uint64_t bad_frame_events = 0;
  std::vector<int> quarantined;  // ascending full-stream frame indices
  LeakAccumulators acc;
  // Leak fraction of each frame in [range_begin, range_end), in order.
  std::vector<double> per_frame_leak_fraction;
};

// True when `a` and `b` are the same stream as BBPR records it: equal
// dimensions and frame count, and fps equal to the millihertz.
bool SameStream(const video::StreamInfo& a, const video::StreamInfo& b);

// Hash over every reconstruction option that can change the merged output,
// mixed with `salt` (callers fold in the VB reference identity so partials
// built against different references never merge). Not a general-purpose
// config digest: options that cannot perturb the output (keep_frame_masks)
// are deliberately excluded.
std::uint64_t ConfigHash(const ReconstructionOptions& opts,
                         std::uint64_t salt);

// Serializes `partial` to `path` via write-temp-then-rename.
Status SavePartial(const PartialResult& partial, const std::string& path);

// Parses and validates `path`. kNotFound when the file does not exist;
// kDataLoss on corrupt contents and kFailedPrecondition on a version
// mismatch or a retired BBCK checkpoint, with the offending byte range
// named in the message.
Result<PartialResult> LoadPartial(const std::string& path);

}  // namespace bb::core
