#include "core/partial.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/fileio.h"
#include "core/wire.h"

namespace bb::core {

namespace {

constexpr char kMagic[4] = {'B', 'B', 'P', 'R'};
// Magic of the checkpoint format BBPR v2 replaced.
constexpr char kRetiredCheckpointMagic[4] = {'B', 'B', 'C', 'K'};
constexpr std::uint32_t kVersion = 2;
// Fixed-size header through the quarantine count (see partial.h layout).
constexpr std::size_t kHeaderBytes = 72;

Status Corrupt(const std::string& what) {
  return Status(StatusCode::kDataLoss, what);
}

// " at bytes b-e" suffix naming the half-open byte span [pos, pos + len).
std::string At(std::size_t pos, std::size_t len) {
  return " at bytes " + std::to_string(pos) + "-" +
         std::to_string(pos + len - 1);
}

}  // namespace

void LeakAccumulators::Zero(std::size_t pixels) {
  counts.assign(pixels, 0);
  sum_r.assign(pixels, 0.0);
  sum_g.assign(pixels, 0.0);
  sum_b.assign(pixels, 0.0);
  sum_r2.assign(pixels, 0.0);
  sum_g2.assign(pixels, 0.0);
  sum_b2.assign(pixels, 0.0);
}

void LeakAccumulators::Add(const LeakAccumulators& other) {
  for (std::size_t k = 0; k < counts.size(); ++k) {
    counts[k] += other.counts[k];
    sum_r[k] += other.sum_r[k];
    sum_g[k] += other.sum_g[k];
    sum_b[k] += other.sum_b[k];
    sum_r2[k] += other.sum_r2[k];
    sum_g2[k] += other.sum_g2[k];
    sum_b2[k] += other.sum_b2[k];
  }
}

bool SameStream(const video::StreamInfo& a, const video::StreamInfo& b) {
  return a.width == b.width && a.height == b.height &&
         a.frame_count == b.frame_count &&
         std::lround(a.fps * 1000.0) == std::lround(b.fps * 1000.0);
}

std::uint64_t ConfigHash(const ReconstructionOptions& opts,
                         std::uint64_t salt) {
  std::string bytes;
  bytes.append("bbcfg1");
  wire::PutF64(&bytes, opts.phi);
  wire::PutU32(&bytes, static_cast<std::uint32_t>(opts.vb.match_tolerance));
  wire::PutU32(&bytes,
               static_cast<std::uint32_t>(opts.vb.score_frame_stride));
  wire::PutU32(&bytes,
               static_cast<std::uint32_t>(opts.vb.score_pixel_stride));
  wire::PutF64(&bytes, opts.caller.rare_color_frequency);
  wire::PutF64(&bytes, opts.caller.protect_core_px);
  wire::PutF64(&bytes, opts.max_color_spread);
  wire::PutU32(&bytes, static_cast<std::uint32_t>(opts.min_leak_count));
  wire::PutU64(&bytes, salt);
  return wire::Fnv1a64(bytes);
}

Status SavePartial(const PartialResult& partial, const std::string& path) {
  const std::size_t pixels = partial.acc.pixels();
  std::string out;
  out.reserve(kHeaderBytes + partial.quarantined.size() * 4 +
              pixels * 7 * 8 + partial.per_frame_leak_fraction.size() * 8 +
              16);
  out.append(kMagic, 4);
  wire::PutU32(&out, kVersion);
  wire::PutU32(&out, static_cast<std::uint32_t>(partial.info.width));
  wire::PutU32(&out, static_cast<std::uint32_t>(partial.info.height));
  wire::PutU32(&out, static_cast<std::uint32_t>(partial.info.frame_count));
  wire::PutU32(&out, static_cast<std::uint32_t>(
                         std::lround(partial.info.fps * 1000.0)));
  wire::PutU64(&out, partial.config_hash);
  wire::PutU32(&out, static_cast<std::uint32_t>(partial.range_begin));
  wire::PutU32(&out, static_cast<std::uint32_t>(partial.range_end));
  wire::PutU32(&out, static_cast<std::uint32_t>(
                         static_cast<std::int32_t>(partial.bad_budget)));
  wire::PutU32(&out, static_cast<std::uint32_t>(partial.min_leak_count));
  wire::PutF64(&out, partial.max_color_spread);
  wire::PutU64(&out, partial.bad_frame_events);
  wire::PutU32(&out, static_cast<std::uint32_t>(partial.frames_done));
  wire::PutU32(&out, static_cast<std::uint32_t>(partial.quarantined.size()));
  for (int q : partial.quarantined) {
    wire::PutU32(&out, static_cast<std::uint32_t>(q));
  }
  wire::PutU64(&out, static_cast<std::uint64_t>(pixels));
  for (int c : partial.acc.counts) {
    wire::PutU64(&out, static_cast<std::uint64_t>(c));
  }
  for (const std::vector<double>* arr :
       {&partial.acc.sum_r, &partial.acc.sum_g, &partial.acc.sum_b,
        &partial.acc.sum_r2, &partial.acc.sum_g2, &partial.acc.sum_b2}) {
    for (double v : *arr) wire::PutF64(&out, v);
  }
  for (double v : partial.per_frame_leak_fraction) wire::PutF64(&out, v);
  wire::PutU64(&out, wire::Fnv1a64(out));

  return common::AtomicWriteFile(out, path, "partial");
}

Result<PartialResult> LoadPartial(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    return Status(StatusCode::kNotFound, "no partial file")
        .WithContext("partial " + path);
  }
  const std::string bytes((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
  const auto reject = [&path](const Status& status) {
    return status.WithContext("partial " + path);
  };
  if (bytes.size() >= 4 &&
      std::memcmp(bytes.data(), kRetiredCheckpointMagic, 4) == 0) {
    // Not corruption: an older build's checkpoint, refused like a version
    // mismatch so a resume starts fresh.
    return reject(Status(StatusCode::kFailedPrecondition,
                         "checkpoint in the retired BBCK format of an older "
                         "build at bytes 0-3 (want BBPR)"));
  }
  if (bytes.size() < 4 || std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return reject(Corrupt("bad magic at bytes 0-3 (want BBPR)"));
  }
  if (bytes.size() < kHeaderBytes + 8 + 8) {
    return reject(Corrupt("truncated header (want at least " +
                          std::to_string(kHeaderBytes + 16) + " bytes, got " +
                          std::to_string(bytes.size()) + ")"));
  }
  // Checksum first: any bit flip anywhere is caught before parsing.
  const std::string body = bytes.substr(0, bytes.size() - 8);
  wire::Reader tail{bytes, bytes.size() - 8};
  std::uint64_t declared_sum = 0;
  (void)tail.TakeU64(&declared_sum);
  if (wire::Fnv1a64(body) != declared_sum) {
    return reject(Corrupt("checksum mismatch" + At(bytes.size() - 8, 8) +
                          " (file corrupted)"));
  }

  wire::Reader r{body, 4};
  std::uint32_t version = 0;
  (void)r.TakeU32(&version);
  if (version != kVersion) {
    return reject(
        Status(StatusCode::kFailedPrecondition,
               "unsupported partial version " + std::to_string(version) +
                   " (want " + std::to_string(kVersion) + ")" + At(4, 4)));
  }
  std::uint32_t w = 0, h = 0, frames = 0, fps_mhz = 0;
  std::uint64_t config_hash = 0;
  std::uint32_t range_begin = 0, range_end = 0, budget_raw = 0,
                min_leak = 0;
  double color_spread = 0.0;
  std::uint64_t bad_events = 0;
  std::uint32_t frames_done = 0, quarantine_count = 0;
  (void)r.TakeU32(&w);
  (void)r.TakeU32(&h);
  (void)r.TakeU32(&frames);
  (void)r.TakeU32(&fps_mhz);
  (void)r.TakeU64(&config_hash);
  (void)r.TakeU32(&range_begin);
  (void)r.TakeU32(&range_end);
  (void)r.TakeU32(&budget_raw);
  (void)r.TakeU32(&min_leak);
  (void)r.TakeF64(&color_spread);
  (void)r.TakeU64(&bad_events);
  (void)r.TakeU32(&frames_done);
  (void)r.TakeU32(&quarantine_count);
  if (w == 0 || h == 0 || w > 16384 || h > 16384 || frames > 1000000) {
    return reject(Corrupt("implausible stream identity" + At(8, 16)));
  }
  if (range_begin > range_end || range_end > frames) {
    return reject(Corrupt(
        "implausible frame range [" + std::to_string(range_begin) + ", " +
        std::to_string(range_end) + ") for a stream of " +
        std::to_string(frames) + " frames" + At(32, 8)));
  }
  const std::int32_t budget = static_cast<std::int32_t>(budget_raw);
  if (budget < -1) {
    return reject(Corrupt("implausible bad-frame budget" + At(40, 4)));
  }
  if (min_leak > 1000000) {
    return reject(Corrupt("implausible min_leak_count" + At(44, 4)));
  }
  if (!std::isfinite(color_spread)) {
    return reject(Corrupt("non-finite max_color_spread" + At(48, 8)));
  }
  if (frames_done < range_begin || frames_done > range_end) {
    return reject(Corrupt("implausible frames_done " +
                          std::to_string(frames_done) +
                          " outside the frame range [" +
                          std::to_string(range_begin) + ", " +
                          std::to_string(range_end) + "]" + At(64, 4)));
  }
  if (quarantine_count > frames) {
    return reject(Corrupt("implausible quarantine count" + At(68, 4)));
  }

  PartialResult partial;
  partial.info.width = static_cast<int>(w);
  partial.info.height = static_cast<int>(h);
  partial.info.frame_count = static_cast<int>(frames);
  partial.info.fps = fps_mhz / 1000.0;
  partial.config_hash = config_hash;
  partial.range_begin = static_cast<int>(range_begin);
  partial.range_end = static_cast<int>(range_end);
  partial.frames_done = static_cast<int>(frames_done);
  partial.bad_budget = budget;
  partial.min_leak_count = static_cast<int>(min_leak);
  partial.max_color_spread = color_spread;
  partial.bad_frame_events = bad_events;
  partial.quarantined.reserve(quarantine_count);
  int prev = -1;
  for (std::uint32_t i = 0; i < quarantine_count; ++i) {
    const std::size_t pos = r.pos;
    std::uint32_t q = 0;
    if (!r.TakeU32(&q)) {
      return reject(Corrupt("truncated quarantine list"));
    }
    if (q >= frames || static_cast<int>(q) <= prev) {
      return reject(
          Corrupt("quarantine list not ascending in-range" + At(pos, 4)));
    }
    prev = static_cast<int>(q);
    partial.quarantined.push_back(prev);
  }
  const std::size_t pixels_pos = r.pos;
  std::uint64_t pixels = 0;
  if (!r.TakeU64(&pixels)) {
    return reject(Corrupt("truncated accumulators"));
  }
  if (pixels != static_cast<std::uint64_t>(w) * h) {
    return reject(Corrupt("pixel count does not match dimensions" +
                          At(pixels_pos, 8)));
  }
  const std::uint64_t range_frames = range_end - range_begin;
  partial.acc.counts.reserve(pixels);
  for (std::uint64_t i = 0; i < pixels; ++i) {
    const std::size_t pos = r.pos;
    std::uint64_t c = 0;
    if (!r.TakeU64(&c)) return reject(Corrupt("truncated accumulators"));
    // A pixel can only leak in frames this shard decomposed.
    if (c > range_frames) {
      return reject(
          Corrupt("leak count exceeds the shard's frame range" + At(pos, 8)));
    }
    partial.acc.counts.push_back(static_cast<int>(c));
  }
  for (std::vector<double>* arr :
       {&partial.acc.sum_r, &partial.acc.sum_g, &partial.acc.sum_b,
        &partial.acc.sum_r2, &partial.acc.sum_g2, &partial.acc.sum_b2}) {
    arr->reserve(pixels);
    for (std::uint64_t i = 0; i < pixels; ++i) {
      const std::size_t pos = r.pos;
      double v = 0.0;
      if (!r.TakeF64(&v)) return reject(Corrupt("truncated accumulators"));
      if (!std::isfinite(v)) {
        return reject(Corrupt("non-finite accumulator value" + At(pos, 8)));
      }
      arr->push_back(v);
    }
  }
  partial.per_frame_leak_fraction.reserve(range_frames);
  for (std::uint64_t i = 0; i < range_frames; ++i) {
    const std::size_t pos = r.pos;
    double v = 0.0;
    if (!r.TakeF64(&v)) {
      return reject(Corrupt("truncated per-frame leak fractions"));
    }
    if (!std::isfinite(v)) {
      return reject(
          Corrupt("non-finite per-frame leak fraction" + At(pos, 8)));
    }
    partial.per_frame_leak_fraction.push_back(v);
  }
  if (r.pos != body.size()) {
    return reject(Corrupt("trailing bytes after the declared payload" +
                          At(r.pos, body.size() - r.pos)));
  }
  return partial;
}

}  // namespace bb::core
