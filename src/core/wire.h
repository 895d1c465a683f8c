// Little-endian wire helpers shared by the sealed on-disk formats (BBPR
// partials and checkpoints in partial.h, BBJB job records in
// service/job.h): byte emission into a growing string, a bounds-checked
// cursor reader whose Take* methods return false past the end (so every
// truncation lands in one structured-error path), and the FNV-1a-64 seal
// both formats append over every preceding byte.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

namespace bb::core::wire {

inline std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

inline void PutU32(std::string* out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

inline void PutU64(std::string* out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

inline void PutF64(std::string* out, double v) {
  PutU64(out, std::bit_cast<std::uint64_t>(v));
}

// Cursor-based reader over loaded bytes.
struct Reader {
  const std::string& bytes;
  std::size_t pos = 0;

  bool TakeU32(std::uint32_t* v) {
    if (pos + 4 > bytes.size()) return false;
    *v = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      *v |= static_cast<std::uint32_t>(
                static_cast<unsigned char>(bytes[pos++]))
            << shift;
    }
    return true;
  }

  bool TakeU64(std::uint64_t* v) {
    if (pos + 8 > bytes.size()) return false;
    *v = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      *v |= static_cast<std::uint64_t>(
                static_cast<unsigned char>(bytes[pos++]))
            << shift;
    }
    return true;
  }

  bool TakeF64(double* v) {
    std::uint64_t raw = 0;
    if (!TakeU64(&raw)) return false;
    *v = std::bit_cast<double>(raw);
    return true;
  }
};

}  // namespace bb::core::wire
