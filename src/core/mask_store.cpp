#include "core/mask_store.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <stdexcept>
#include <string>

#include "common/faultinject.h"
#include "common/trace.h"

namespace bb::core {

namespace {

std::atomic<std::size_t> g_cap_for_test{0};

// Record header: frame index and run-code size, 4 little-endian bytes each.
constexpr std::size_t kHeaderBytes = 8;
using Header = std::array<std::uint8_t, kHeaderBytes>;

Header MakeHeader(int frame_index, std::size_t size) {
  const auto frame = static_cast<std::uint32_t>(frame_index);
  const auto bytes = static_cast<std::uint32_t>(size);
  Header h{};
  for (std::size_t i = 0; i < 4; ++i) {
    h[i] = static_cast<std::uint8_t>(frame >> (8 * i));
    h[4 + i] = static_cast<std::uint8_t>(bytes >> (8 * i));
  }
  return h;
}

void ParseHeader(std::span<const std::uint8_t> h, int* frame_index,
                 std::size_t* size) {
  std::uint32_t frame = 0, bytes = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    frame |= static_cast<std::uint32_t>(h[i]) << (8 * i);
    bytes |= static_cast<std::uint32_t>(h[4 + i]) << (8 * i);
  }
  *frame_index = static_cast<int>(frame);
  *size = bytes;
}

// One spill-file operation (a record write or read) consumes one "spill"
// occurrence; a scheduled fault of any kind fails it.
bool InjectedSpillFault() {
  if (!faultinject::Enabled() ||
      !faultinject::At("spill", faultinject::NextCount("spill"))) {
    return false;
  }
  if (trace::Enabled()) trace::AddCounter("fault.injected.spill", 1);
  return true;
}

}  // namespace

void EncodeMaskRuns(const imaging::Bitmap& mask,
                    std::vector<std::uint8_t>* runs) {
  runs->clear();
  const auto px = mask.pixels();
  for (auto it = px.begin(); it != px.end();) {
    const std::uint8_t value = *it;
    const auto run_end = std::find_if(
        it, px.end(), [value](std::uint8_t p) { return p != value; });
    runs->push_back(value);
    auto length = static_cast<std::uint64_t>(run_end - it);
    while (length >= 0x80) {
      runs->push_back(static_cast<std::uint8_t>(length | 0x80));
      length >>= 7;
    }
    runs->push_back(static_cast<std::uint8_t>(length));
    it = run_end;
  }
}

bool DecodeMaskRuns(std::span<const std::uint8_t> runs,
                    imaging::Bitmap* mask) {
  const auto px = mask->pixels();
  std::size_t filled = 0;
  std::size_t pos = 0;
  while (pos < runs.size()) {
    const std::uint8_t value = runs[pos++];
    std::uint64_t length = 0;
    for (int shift = 0;; shift += 7) {
      if (pos == runs.size() || shift > 56) return false;
      const std::uint8_t b = runs[pos++];
      length |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) break;
    }
    if (length == 0 || length > px.size() - filled) return false;
    std::fill_n(px.begin() + static_cast<std::ptrdiff_t>(filled), length,
                value);
    filled += length;
  }
  return filled == px.size();
}

MaskStore::~MaskStore() {
  if (spill_ != nullptr) std::fclose(spill_);
}

void MaskStore::SetResidentCapForTest(std::size_t bytes) {
  g_cap_for_test.store(bytes, std::memory_order_relaxed);
}

void MaskStore::Clear() {
  if (spill_ != nullptr) std::fclose(spill_);
  spill_ = nullptr;
  const std::size_t test_cap = g_cap_for_test.load(std::memory_order_relaxed);
  cap_ = test_cap > 0 ? test_cap : kMaskStoreResidentBytes;
  resident_ = {};
  read_pos_ = 0;
  reading_ = false;
  last_put_ = -1;
  last_taken_ = -1;
  spilled_masks_ = 0;
  unread_spilled_ = 0;
}

Status MaskStore::Put(int frame_index, std::span<const std::uint8_t> runs) {
  if (reading_ || frame_index <= last_put_) {
    throw std::logic_error(
        "MaskStore: masks must be put in frame order before any Take");
  }
  last_put_ = frame_index;
  const Header header = MakeHeader(frame_index, runs.size());
  // Once one mask spills, every later one does too, so the records stay in
  // frame order: memory first, then the file.
  if (spill_ == nullptr &&
      resident_.size() + kHeaderBytes + runs.size() <= cap_) {
    resident_.insert(resident_.end(), header.begin(), header.end());
    resident_.insert(resident_.end(), runs.begin(), runs.end());
    return OkStatus();
  }
  if (spill_ == nullptr) {
    spill_ = std::tmpfile();
    if (spill_ == nullptr) {
      return Status(StatusCode::kIoError, "cannot create the mask spill file");
    }
  }
  const auto failed = [frame_index](const char* what) {
    return Status(StatusCode::kIoError, what)
        .WithContext("mask of frame " + std::to_string(frame_index));
  };
  if (InjectedSpillFault()) return failed("injected spill write failure");
  if (std::fwrite(header.data(), 1, header.size(), spill_) != header.size() ||
      std::fwrite(runs.data(), 1, runs.size(), spill_) != runs.size()) {
    return failed("mask spill write failed");
  }
  ++spilled_masks_;
  ++unread_spilled_;
  return OkStatus();
}

Status MaskStore::ReadRecord(int* frame_index,
                             std::vector<std::uint8_t>* runs) {
  std::size_t size = 0;
  if (read_pos_ < resident_.size()) {
    ParseHeader(std::span(resident_).subspan(read_pos_, kHeaderBytes),
                frame_index, &size);
    read_pos_ += kHeaderBytes;
    const auto record = std::span(resident_).subspan(read_pos_, size);
    runs->assign(record.begin(), record.end());
    read_pos_ += size;
    return OkStatus();
  }
  if (unread_spilled_ == 0) {
    *frame_index = -1;
    return OkStatus();
  }
  --unread_spilled_;
  if (InjectedSpillFault()) {
    return Status(StatusCode::kIoError, "injected spill read failure");
  }
  Header header{};
  if (std::fread(header.data(), 1, header.size(), spill_) != header.size()) {
    return Status(StatusCode::kDataLoss, "mask spill file ends early");
  }
  ParseHeader(header, frame_index, &size);
  runs->resize(size);
  if (std::fread(runs->data(), 1, size, spill_) != size) {
    return Status(StatusCode::kDataLoss, "mask spill file ends early")
        .WithContext("mask of frame " + std::to_string(*frame_index));
  }
  return OkStatus();
}

Status MaskStore::Take(int frame_index, std::vector<std::uint8_t>* runs) {
  if (frame_index <= last_taken_) {
    throw std::logic_error("MaskStore: masks must be taken in frame order");
  }
  last_taken_ = frame_index;
  if (!reading_) {
    reading_ = true;
    if (spill_ != nullptr && (std::fflush(spill_) != 0 ||
                              std::fseek(spill_, 0, SEEK_SET) != 0)) {
      return Status(StatusCode::kIoError, "cannot rewind the mask spill file");
    }
  }
  for (;;) {
    int stored = -1;
    if (Status read = ReadRecord(&stored, runs); !read.ok()) return read;
    if (stored == frame_index) return OkStatus();
    if (stored < 0 || stored > frame_index) {
      return Status(StatusCode::kInternal,
                    "no stored caller mask for frame " +
                        std::to_string(frame_index));
    }
  }
}

}  // namespace bb::core
