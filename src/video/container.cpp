#include "video/container.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace bb::video {

namespace {

void PutU32(std::string* out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void PutU64(std::string* out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

// Cursor-based reader over in-memory footer bytes; Take* return false past
// the end so every truncation lands in one structured-error path (the same
// shape as the BBPR partial reader).
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
};

Status Corrupt(const std::string& what) {
  return Status(StatusCode::kDataLoss, what);
}

// "write failed at byte N: <OS reason>" - the write-path counterpart of the
// readers' named byte ranges.
Status WriteError(const std::string& what, std::uint64_t at_byte) {
  const int err = errno;
  std::string message = what + " at byte " + std::to_string(at_byte);
  if (err != 0) {
    message += ": ";
    message += std::strerror(err);
  }
  return Status(StatusCode::kIoError, message);
}

// Serializes the RGB payload of one frame into `row` (reused scratch).
void EncodeFrame(const imaging::Image& frame, std::string* row) {
  row->clear();
  row->reserve(frame.pixel_count() * 3);
  // bblint: allow(no-per-pixel-loop) -- FNV content hash; the chained multiply is sequential by definition
  for (const imaging::Rgb8& p : frame.pixels()) {
    row->push_back(static_cast<char>(p.r));
    row->push_back(static_cast<char>(p.g));
    row->push_back(static_cast<char>(p.b));
  }
}

}  // namespace

std::uint64_t Fnv1a64(const char* data, std::size_t size,
                      std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

double Bbv2Layout::DedupRatio() const {
  if (blob_offsets.empty()) return 1.0;
  return static_cast<double>(frame_blobs.size()) /
         static_cast<double>(blob_offsets.size());
}

Status ValidateStreamForWrite(int width, int height, int frame_count,
                              double fps) {
  if (width < 0 || height < 0 || width > kMaxBbvDimension ||
      height > kMaxBbvDimension) {
    return Status(StatusCode::kInvalidArgument,
                  "frame dimensions " + std::to_string(width) + "x" +
                      std::to_string(height) + " exceed the format limit of " +
                      std::to_string(kMaxBbvDimension) + " per side");
  }
  if (frame_count < 0 || frame_count > kMaxBbvFrameCount) {
    return Status(StatusCode::kInvalidArgument,
                  "frame count " + std::to_string(frame_count) +
                      " exceeds the format limit of " +
                      std::to_string(kMaxBbvFrameCount));
  }
  // The header stores fps as lround(fps * 1000) in a u32; anything that
  // would round to zero, wrap negative, or overflow produces a header the
  // reader rejects - refuse to write it instead.
  if (!(fps > 0.0) || !std::isfinite(fps)) {
    return Status(StatusCode::kInvalidArgument,
                  "fps must be a positive finite value");
  }
  if (fps * 1000.0 > 4294967295.0) {
    return Status(StatusCode::kInvalidArgument,
                  "fps " + std::to_string(fps) +
                      " overflows the header's milli-fps field");
  }
  if (std::lround(fps * 1000.0) == 0) {
    return Status(StatusCode::kInvalidArgument,
                  "fps " + std::to_string(fps) +
                      " rounds to zero milli-fps in the header");
  }
  return OkStatus();
}

Status WriteBbv2(const VideoStream& video, const std::string& path) {
  const auto context = [&path](Status status) {
    return status.WithContext("write " + path);
  };
  if (const Status valid =
          ValidateStreamForWrite(video.width(), video.height(),
                                 video.frame_count(), video.fps());
      !valid.ok()) {
    return valid.WithContext("write " + path);
  }

  errno = 0;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return context(WriteError("cannot open for writing", 0));

  std::string header;
  header.append(kBbv2Magic, 4);
  PutU32(&header, static_cast<std::uint32_t>(video.width()));
  PutU32(&header, static_cast<std::uint32_t>(video.height()));
  PutU32(&header, static_cast<std::uint32_t>(video.frame_count()));
  PutU32(&header,
         static_cast<std::uint32_t>(std::lround(video.fps() * 1000.0)));
  out.write(header.data(), static_cast<std::streamsize>(header.size()));

  // Dedup pass: hash each frame; a hash hit is confirmed by comparing the
  // pixels against the blob's first occurrence (both live in `video`), so
  // a collision degrades to a second blob, never to a wrong mapping.
  std::unordered_map<std::uint64_t, std::vector<int>> first_by_hash;
  std::vector<std::uint64_t> blob_offsets, blob_hashes;
  std::vector<std::uint32_t> frame_blobs;
  frame_blobs.reserve(static_cast<std::size_t>(video.frame_count()));
  std::string row;
  std::uint64_t written = static_cast<std::uint64_t>(kBbvHeaderBytes);
  for (int i = 0; i < video.frame_count(); ++i) {
    const imaging::Image& f = video.frame(i);
    EncodeFrame(f, &row);
    const std::uint64_t hash = Fnv1a64(row.data(), row.size());
    std::uint32_t blob = 0;
    bool found = false;
    for (int candidate : first_by_hash[hash]) {
      const auto a = f.pixels();
      const auto b = video.frame(candidate).pixels();
      if (a.size() == b.size() &&
          std::equal(a.begin(), a.end(), b.begin())) {
        blob = frame_blobs[static_cast<std::size_t>(candidate)];
        found = true;
        break;
      }
    }
    if (!found) {
      blob = static_cast<std::uint32_t>(blob_offsets.size());
      blob_offsets.push_back(written);
      blob_hashes.push_back(hash);
      first_by_hash[hash].push_back(i);
      errno = 0;
      out.write(row.data(), static_cast<std::streamsize>(row.size()));
      if (!out) {
        return context(
            WriteError("write failed (frame " + std::to_string(i) + ")",
                       written));
      }
      written += row.size();
    }
    frame_blobs.push_back(blob);
  }

  std::string footer;
  PutU32(&footer, static_cast<std::uint32_t>(blob_offsets.size()));
  for (std::size_t k = 0; k < blob_offsets.size(); ++k) {
    PutU64(&footer, blob_offsets[k]);
    PutU64(&footer, blob_hashes[k]);
  }
  for (std::uint32_t id : frame_blobs) PutU32(&footer, id);

  std::string trailer;
  PutU64(&trailer, written);  // footer_off
  PutU64(&trailer, Fnv1a64(footer.data(), footer.size()));
  trailer.append(kBbv2TrailerMagic, 4);

  errno = 0;
  out.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  out.write(trailer.data(), static_cast<std::streamsize>(trailer.size()));
  out.flush();
  if (!out) return context(WriteError("write failed (footer)", written));
  return OkStatus();
}

Result<Bbv2Layout> ReadBbv2Layout(std::istream& in, std::uint64_t file_size,
                                  const std::string& path) {
  const auto reject = [&path](const Status& status) {
    return status.WithContext("open " + path);
  };
  const std::uint64_t min_size =
      static_cast<std::uint64_t>(kBbvHeaderBytes + kBbv2TrailerBytes);
  if (file_size < min_size) {
    return reject(Corrupt(
        "truncated container: " + std::to_string(file_size) +
        " bytes, smaller than the 20-byte header plus 20-byte trailer"));
  }

  // Header (same 20-byte shape as v1).
  in.clear();
  in.seekg(0, std::ios::beg);
  std::string header(static_cast<std::size_t>(kBbvHeaderBytes), '\0');
  in.read(header.data(), kBbvHeaderBytes);
  if (in.gcount() != kBbvHeaderBytes ||
      std::memcmp(header.data(), kBbv2Magic, 4) != 0) {
    return reject(Corrupt("bad magic at byte 0 (want BBV2)"));
  }
  Reader hr{header, 4};
  std::uint32_t width = 0, height = 0, frames = 0, fps_mhz = 0;
  (void)hr.TakeU32(&width);
  (void)hr.TakeU32(&height);
  (void)hr.TakeU32(&frames);
  (void)hr.TakeU32(&fps_mhz);
  if (fps_mhz == 0) {
    return reject(Corrupt("invalid header: fps is zero (bytes 16-19)"));
  }
  if (frames > 0 && (width == 0 || height == 0)) {
    return reject(Corrupt(
        "invalid header: zero frame dimensions with a nonzero frame count "
        "(bytes 4-11)"));
  }
  if (width > static_cast<std::uint32_t>(kMaxBbvDimension) ||
      height > static_cast<std::uint32_t>(kMaxBbvDimension) ||
      frames > static_cast<std::uint32_t>(kMaxBbvFrameCount)) {
    return reject(Corrupt(
        "implausible header: dimensions or frame count exceed format limits "
        "(bytes 4-15)"));
  }

  // Trailer: the last 20 bytes locate and seal the footer.
  const std::uint64_t trailer_begin =
      file_size - static_cast<std::uint64_t>(kBbv2TrailerBytes);
  in.seekg(static_cast<std::streamoff>(trailer_begin), std::ios::beg);
  std::string trailer(static_cast<std::size_t>(kBbv2TrailerBytes), '\0');
  in.read(trailer.data(), kBbv2TrailerBytes);
  if (in.gcount() != kBbv2TrailerBytes) {
    return reject(Corrupt("truncated trailer at bytes " +
                          std::to_string(trailer_begin) + "-" +
                          std::to_string(file_size - 1)));
  }
  if (trailer.compare(16, 4, kBbv2TrailerMagic, 4) != 0) {
    return reject(Corrupt("bad trailer magic at bytes " +
                          std::to_string(file_size - 4) + "-" +
                          std::to_string(file_size - 1) + " (want BB2X)"));
  }
  Reader tr{trailer, 0};
  std::uint64_t footer_begin = 0, declared_sum = 0;
  (void)tr.TakeU64(&footer_begin);
  (void)tr.TakeU64(&declared_sum);
  if (footer_begin < static_cast<std::uint64_t>(kBbvHeaderBytes) ||
      footer_begin > trailer_begin) {
    return reject(Corrupt(
        "footer offset " + std::to_string(footer_begin) +
        " outside the payload region [20, " + std::to_string(trailer_begin) +
        ") (trailer bytes " + std::to_string(trailer_begin) + "-" +
        std::to_string(trailer_begin + 7) + ")"));
  }

  // Checksum first (the BBPR discipline): any bit flip in the footer is
  // caught before a single field is trusted.
  const std::uint64_t footer_size = trailer_begin - footer_begin;
  in.seekg(static_cast<std::streamoff>(footer_begin), std::ios::beg);
  std::string footer(static_cast<std::size_t>(footer_size), '\0');
  in.read(footer.data(), static_cast<std::streamsize>(footer_size));
  if (static_cast<std::uint64_t>(in.gcount()) != footer_size) {
    return reject(Corrupt("truncated footer at bytes " +
                          std::to_string(footer_begin) + "-" +
                          std::to_string(trailer_begin - 1)));
  }
  if (Fnv1a64(footer.data(), footer.size()) != declared_sum) {
    return reject(Corrupt("footer checksum mismatch over bytes " +
                          std::to_string(footer_begin) + "-" +
                          std::to_string(trailer_begin - 1) +
                          " (file corrupted)"));
  }

  // Plausibility: sizes first, then every offset and id against the
  // canonical layout, so no table entry can point into the footer, past
  // the file, at another table entry, or at itself (dedup cycles).
  Reader fr{footer, 0};
  std::uint32_t blob_count = 0;
  if (!fr.TakeU32(&blob_count)) {
    return reject(Corrupt("truncated footer: missing blob count at byte " +
                          std::to_string(footer_begin)));
  }
  if (blob_count > frames) {
    return reject(Corrupt("implausible footer: " +
                          std::to_string(blob_count) + " blobs for " +
                          std::to_string(frames) + " frames"));
  }
  const std::uint64_t expected_footer =
      4 + static_cast<std::uint64_t>(blob_count) * 16 +
      static_cast<std::uint64_t>(frames) * 4;
  if (footer_size != expected_footer) {
    return reject(Corrupt(
        "footer size mismatch: " + std::to_string(footer_size) +
        " bytes at " + std::to_string(footer_begin) + ", " +
        std::to_string(expected_footer) + " expected for " +
        std::to_string(blob_count) + " blobs / " + std::to_string(frames) +
        " frames"));
  }
  const std::uint64_t frame_bytes =
      static_cast<std::uint64_t>(width) * height * 3;
  if (footer_begin - static_cast<std::uint64_t>(kBbvHeaderBytes) !=
      frame_bytes * blob_count) {
    return reject(Corrupt(
        "payload size mismatch: bytes 20-" + std::to_string(footer_begin - 1) +
        " hold " +
        std::to_string(footer_begin -
                       static_cast<std::uint64_t>(kBbvHeaderBytes)) +
        " bytes, " + std::to_string(frame_bytes * blob_count) +
        " expected for " + std::to_string(blob_count) + " blobs"));
  }

  Bbv2Layout layout;
  layout.info = StreamInfo{static_cast<int>(width), static_cast<int>(height),
                           static_cast<int>(frames), fps_mhz / 1000.0};
  layout.footer_begin = footer_begin;
  layout.blob_offsets.reserve(blob_count);
  layout.blob_hashes.reserve(blob_count);
  for (std::uint32_t k = 0; k < blob_count; ++k) {
    std::uint64_t offset = 0, hash = 0;
    (void)fr.TakeU64(&offset);
    (void)fr.TakeU64(&hash);
    const std::uint64_t canonical =
        static_cast<std::uint64_t>(kBbvHeaderBytes) + frame_bytes * k;
    if (offset != canonical) {
      return reject(Corrupt(
          "blob " + std::to_string(k) + " offset " + std::to_string(offset) +
          " is not the canonical " + std::to_string(canonical) +
          " (footer byte " +
          std::to_string(footer_begin + 4 + static_cast<std::uint64_t>(k) * 16) +
          "; overlapping or cyclic dedup entries are not valid)"));
    }
    layout.blob_offsets.push_back(offset);
    layout.blob_hashes.push_back(hash);
  }
  layout.frame_blobs.reserve(frames);
  for (std::uint32_t i = 0; i < frames; ++i) {
    std::uint32_t id = 0;
    (void)fr.TakeU32(&id);
    if (id >= blob_count) {
      return reject(Corrupt(
          "frame " + std::to_string(i) + " references blob " +
          std::to_string(id) + " of " + std::to_string(blob_count) +
          " (footer byte " +
          std::to_string(footer_begin + 4 +
                         static_cast<std::uint64_t>(blob_count) * 16 +
                         static_cast<std::uint64_t>(i) * 4) +
          ")"));
    }
    layout.frame_blobs.push_back(id);
  }
  return layout;
}

Result<Bbv2Layout> InspectBbv2(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status(StatusCode::kNotFound, "cannot open file")
        .WithContext("open " + path);
  }
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  return ReadBbv2Layout(in, static_cast<std::uint64_t>(size), path);
}

}  // namespace bb::video
