// ".bbv" container format v2 ("BBV2"): footer-indexed, deduplicating,
// seekable (DESIGN.md section 12).
//
// The v1 container (serialize.h) is a bare linear frame stream: every
// consumer decodes from byte 0 and repeated frames are stored repeatedly.
// v2 keeps the pixel encoding (raw RGB8, row-major) but stores each
// *distinct* frame payload - a "blob" - exactly once and appends a footer
// that maps every frame index to its blob, so readers get O(1)
// seek-to-frame and near-static streams (the paper's static-image VB
// scenario, where most composited frames repeat) shrink by the dedup
// ratio. Layout (all integers little-endian):
//
//   header   "BBV2", width u32, height u32, frames u32, fps_mhz u32
//            (same 20-byte shape as v1, so readers sniff byte 0-3 only)
//   blobs    blob_count x width*height*3 bytes, in first-use order; blob k
//            starts at byte 20 + k * frame_bytes (the canonical layout -
//            offsets are also spelled out in the footer for forward
//            compatibility with variable-size encodings)
//   footer   blob_count u32
//            blob table   blob_count x { offset u64, fnv1a64 u64 }
//            frame table  frames x u32 blob id
//   trailer  footer_off u64   absolute byte offset of the footer
//            checksum   u64   FNV-1a-64 over the footer bytes
//            magic      "BB2X"
//
// The trailer is fixed-size at the very end of the file, so a reader finds
// the footer without scanning the payload. Loading is hostile-input
// hardened the same way as BBPR partials (core/partial.h) and the v1
// header: checksum first, then plausibility - every offset, count, and id
// is validated against the file size and format limits before anything is
// allocated or dereferenced, and every rejection names the offending byte
// range. Blob content hashes are re-verified lazily on first decode.
#pragma once

#include <cstdint>
#include <istream>
#include <string>
#include <vector>

#include "common/status.h"
#include "video/frame_source.h"
#include "video/video.h"

namespace bb::video {

// Format limits shared by the v1/v2 writers and readers (a header that
// exceeds them is rejected as implausible before any allocation).
inline constexpr int kMaxBbvDimension = 16384;
inline constexpr int kMaxBbvFrameCount = 1000000;

inline constexpr char kBbv1Magic[4] = {'B', 'B', 'V', '1'};
inline constexpr char kBbv2Magic[4] = {'B', 'B', 'V', '2'};
inline constexpr char kBbv2TrailerMagic[4] = {'B', 'B', '2', 'X'};
inline constexpr std::streamoff kBbvHeaderBytes = 20;
inline constexpr std::streamoff kBbv2TrailerBytes = 20;

// FNV-1a 64 - the same content hash BBPR partials seal with. `seed`
// chains multi-buffer hashes.
inline constexpr std::uint64_t kFnv1a64Offset = 14695981039346656037ULL;
std::uint64_t Fnv1a64(const char* data, std::size_t size,
                      std::uint64_t seed = kFnv1a64Offset);

// Parsed, validated v2 index: everything a reader needs for random access.
struct Bbv2Layout {
  StreamInfo info;
  std::uint64_t footer_begin = 0;           // absolute byte offset
  std::vector<std::uint64_t> blob_offsets;  // absolute, one per unique blob
  std::vector<std::uint64_t> blob_hashes;   // FNV-1a-64 of each blob's bytes
  std::vector<std::uint32_t> frame_blobs;   // frame index -> blob id

  int blob_count() const { return static_cast<int>(blob_offsets.size()); }
  std::uint64_t frame_bytes() const {
    return static_cast<std::uint64_t>(info.width) * info.height * 3;
  }
  // Stored frames per stored blob (1.0 for an empty or fully unique
  // stream); the storage win of dedup on this file.
  double DedupRatio() const;
};

// Validates stream parameters against the format limits above - the same
// checks the readers apply to a header, applied *before* writing one, so a
// writer refuses to produce a file its own reader would reject (v1
// historically truncated oversized dimensions into the header silently).
Status ValidateStreamForWrite(int width, int height, int frame_count,
                              double fps);

// Writes `video` as a BBV2 file. Frames with identical pixel content share
// one blob (hash match is confirmed byte-for-byte against the first
// occurrence, so an FNV collision can never corrupt the mapping). Failures
// name the byte offset reached and the OS error.
Status WriteBbv2(const VideoStream& video, const std::string& path);

// Parses and validates the v2 header + footer of an open stream (any
// read position; `file_size` must be the total size). kDataLoss names the
// offending byte range on every rejection; the blob payloads themselves
// are not read - their hashes are checked by the frame reader on decode.
Result<Bbv2Layout> ReadBbv2Layout(std::istream& in, std::uint64_t file_size,
                                  const std::string& path);

// Convenience for tools: opens `path`, requires the BBV2 magic, and
// returns the validated layout.
Result<Bbv2Layout> InspectBbv2(const std::string& path);

}  // namespace bb::video
