// Caller-pass mask store (DESIGN.md section 10).
//
// The streaming core segments every frame exactly once, in the caller pass,
// and the decomposition pass refines the same raw masks into VCMs. The
// MaskStore carries them from one pass to the other: the caller pass
// puts the raw mask of every frame in the decomposition range, in frame
// order and run-length encoded (lossless for any byte values; a 192x144
// person mask takes about 1 KB instead of 27 KB), and the decomposition
// pass takes them back in the same order.
//
// Resident bytes are capped at kMaskStoreResidentBytes. Once a mask would
// cross the cap, it and every later mask append to an unlinked tmpfile()
// and are read back sequentially, so the store's memory never grows with
// the call. A failed spill write or read is a Status; the store never drops
// a mask.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "common/status.h"
#include "imaging/image.h"

namespace bb::core {

// Resident byte budget of one MaskStore; masks past it spill to disk.
// 32 MiB holds ~30,000 192x144 masks, and a tenth of what one 64-frame
// 1080p window of frames takes.
inline constexpr std::size_t kMaskStoreResidentBytes = std::size_t{32} << 20;

// Lossless run-length code of `mask` into `*runs` (cleared first):
// (value byte, LEB128 run length) pairs in raster order.
void EncodeMaskRuns(const imaging::Bitmap& mask,
                    std::vector<std::uint8_t>* runs);

// Inverse of EncodeMaskRuns into `*mask`, which must already have the
// encoded shape. False, leaving the mask unspecified, when `runs` is
// malformed or does not cover the mask exactly.
bool DecodeMaskRuns(std::span<const std::uint8_t> runs, imaging::Bitmap* mask);

class MaskStore {
 public:
  MaskStore() = default;
  ~MaskStore();
  MaskStore(const MaskStore&) = delete;
  MaskStore& operator=(const MaskStore&) = delete;

  // Drops every mask and the spill file, and takes up the current resident
  // cap (see SetResidentCapForTest).
  void Clear();

  // Stores the encoded mask of `frame_index`. Frame indices must increase,
  // and every Put must precede the first Take (std::logic_error
  // otherwise). kIoError when the spill file cannot be created or written.
  Status Put(int frame_index, std::span<const std::uint8_t> runs);

  // Copies the encoded mask of `frame_index` into `*runs`, discarding the
  // stored masks of earlier frames (frames quarantined after the caller
  // pass). Frame indices must increase across calls. kInternal when no
  // mask of `frame_index` was stored; kIoError or kDataLoss when the spill
  // read fails or comes back short.
  Status Take(int frame_index, std::vector<std::uint8_t>* runs);

  // Masks written to the spill file since Clear().
  std::uint64_t spilled_masks() const { return spilled_masks_; }

  // Test seam: the resident cap of stores cleared afterwards, in bytes.
  // 0 restores kMaskStoreResidentBytes.
  static void SetResidentCapForTest(std::size_t bytes);

 private:
  // Next record (frame index, encoded runs), from memory, then the spill.
  Status ReadRecord(int* frame_index, std::vector<std::uint8_t>* runs);

  std::size_t cap_ = kMaskStoreResidentBytes;
  // Resident records, oldest first: frame index and run-code size (4
  // little-endian bytes each), then the run code.
  std::vector<std::uint8_t> resident_;
  std::size_t read_pos_ = 0;
  std::FILE* spill_ = nullptr;  // same record format; null until needed
  bool reading_ = false;
  int last_put_ = -1;
  int last_taken_ = -1;
  std::uint64_t spilled_masks_ = 0;
  std::uint64_t unread_spilled_ = 0;
};

}  // namespace bb::core
