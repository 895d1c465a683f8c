#include "core/checkpoint.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/fileio.h"
#include "core/wire.h"

namespace bb::core {

namespace {

constexpr char kMagic[4] = {'B', 'B', 'C', 'K'};
constexpr std::uint32_t kVersion = 3;

Status Corrupt(const std::string& what) {
  return Status(StatusCode::kDataLoss, what);
}

}  // namespace

Status SaveCheckpoint(const CheckpointState& state, const std::string& path) {
  const std::size_t pixels = state.acc.pixels();
  std::string out;
  out.reserve(80 + pixels * 7 * 8 +
              state.per_frame_leak_fraction.size() * 8);
  out.append(kMagic, 4);
  wire::PutU32(&out, kVersion);
  wire::PutU32(&out, static_cast<std::uint32_t>(state.info.width));
  wire::PutU32(&out, static_cast<std::uint32_t>(state.info.height));
  wire::PutU32(&out, static_cast<std::uint32_t>(state.info.frame_count));
  wire::PutU32(&out,
               static_cast<std::uint32_t>(std::lround(state.info.fps * 1000.0)));
  wire::PutU32(&out, static_cast<std::uint32_t>(state.frames_done));
  wire::PutU32(&out, static_cast<std::uint32_t>(state.shard_begin));
  wire::PutU32(&out, static_cast<std::uint32_t>(state.shard_end));
  wire::PutU64(&out, state.config_hash);
  wire::PutU32(&out, static_cast<std::uint32_t>(state.quarantined.size()));
  for (int q : state.quarantined) {
    wire::PutU32(&out, static_cast<std::uint32_t>(q));
  }
  wire::PutU64(&out, static_cast<std::uint64_t>(pixels));
  for (int c : state.acc.counts) {
    wire::PutU64(&out, static_cast<std::uint64_t>(c));
  }
  for (const std::vector<double>* arr :
       {&state.acc.sum_r, &state.acc.sum_g, &state.acc.sum_b,
        &state.acc.sum_r2, &state.acc.sum_g2, &state.acc.sum_b2}) {
    for (double v : *arr) wire::PutF64(&out, v);
  }
  for (double v : state.per_frame_leak_fraction) wire::PutF64(&out, v);
  wire::PutU64(&out, wire::Fnv1a64(out));

  return common::AtomicWriteFile(out, path, "checkpoint");
}

Result<CheckpointState> LoadCheckpoint(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    return Status(StatusCode::kNotFound, "no checkpoint file")
        .WithContext("checkpoint " + path);
  }
  const std::string bytes((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
  const auto reject = [&path](const Status& status) {
    return status.WithContext("checkpoint " + path);
  };
  if (bytes.size() < 4 + 4 + 8 ||
      std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return reject(Corrupt("bad magic (want BBCK)"));
  }
  // Checksum first: any bit flip anywhere is caught before parsing.
  const std::string body = bytes.substr(0, bytes.size() - 8);
  wire::Reader tail{bytes, bytes.size() - 8};
  std::uint64_t declared_sum = 0;
  (void)tail.TakeU64(&declared_sum);
  if (wire::Fnv1a64(body) != declared_sum) {
    return reject(Corrupt("checksum mismatch (file corrupted)"));
  }

  wire::Reader r{body, 4};
  std::uint32_t version = 0;
  if (!r.TakeU32(&version)) return reject(Corrupt("truncated header"));
  if (version != kVersion) {
    return reject(Status(
        StatusCode::kFailedPrecondition,
        "unsupported checkpoint version " + std::to_string(version) +
            " (want " + std::to_string(kVersion) + ")"));
  }
  std::uint32_t w = 0, h = 0, frames = 0, fps_mhz = 0, frames_done = 0,
                shard_begin = 0, shard_end = 0, quarantine_count = 0;
  std::uint64_t config_hash = 0;
  if (!r.TakeU32(&w) || !r.TakeU32(&h) || !r.TakeU32(&frames) ||
      !r.TakeU32(&fps_mhz) || !r.TakeU32(&frames_done) ||
      !r.TakeU32(&shard_begin) || !r.TakeU32(&shard_end) ||
      !r.TakeU64(&config_hash) || !r.TakeU32(&quarantine_count)) {
    return reject(Corrupt("truncated header"));
  }
  if (w > 16384 || h > 16384 || frames > 1000000 ||
      frames_done > frames || quarantine_count > frames) {
    return reject(Corrupt("implausible header fields"));
  }
  if (shard_begin > shard_end || shard_end > frames) {
    return reject(Corrupt("implausible shard range"));
  }

  CheckpointState state;
  state.info.width = static_cast<int>(w);
  state.info.height = static_cast<int>(h);
  state.info.frame_count = static_cast<int>(frames);
  state.info.fps = fps_mhz / 1000.0;
  state.frames_done = static_cast<int>(frames_done);
  state.shard_begin = static_cast<int>(shard_begin);
  state.shard_end = static_cast<int>(shard_end);
  state.config_hash = config_hash;
  state.quarantined.reserve(quarantine_count);
  int prev = -1;
  for (std::uint32_t i = 0; i < quarantine_count; ++i) {
    std::uint32_t q = 0;
    if (!r.TakeU32(&q)) return reject(Corrupt("truncated quarantine list"));
    if (q >= frames || static_cast<int>(q) <= prev) {
      return reject(Corrupt("quarantine list not ascending in-range"));
    }
    prev = static_cast<int>(q);
    state.quarantined.push_back(prev);
  }
  std::uint64_t pixels = 0;
  if (!r.TakeU64(&pixels)) return reject(Corrupt("truncated accumulators"));
  if (pixels != static_cast<std::uint64_t>(w) * h) {
    return reject(Corrupt("pixel count does not match dimensions"));
  }
  state.acc.counts.reserve(pixels);
  for (std::uint64_t i = 0; i < pixels; ++i) {
    std::uint64_t c = 0;
    if (!r.TakeU64(&c)) return reject(Corrupt("truncated accumulators"));
    if (c > frames) return reject(Corrupt("leak count exceeds frame count"));
    state.acc.counts.push_back(static_cast<int>(c));
  }
  for (std::vector<double>* arr :
       {&state.acc.sum_r, &state.acc.sum_g, &state.acc.sum_b,
        &state.acc.sum_r2, &state.acc.sum_g2, &state.acc.sum_b2}) {
    arr->reserve(pixels);
    for (std::uint64_t i = 0; i < pixels; ++i) {
      double v = 0.0;
      if (!r.TakeF64(&v)) return reject(Corrupt("truncated accumulators"));
      if (!std::isfinite(v)) {
        return reject(Corrupt("non-finite accumulator value"));
      }
      arr->push_back(v);
    }
  }
  state.per_frame_leak_fraction.reserve(frames);
  for (std::uint32_t i = 0; i < frames; ++i) {
    double v = 0.0;
    if (!r.TakeF64(&v)) {
      return reject(Corrupt("truncated per-frame leak fractions"));
    }
    if (!std::isfinite(v)) {
      return reject(Corrupt("non-finite per-frame leak fraction"));
    }
    state.per_frame_leak_fraction.push_back(v);
  }
  if (r.pos != body.size()) {
    return reject(Corrupt("trailing bytes after the declared payload"));
  }
  return state;
}

}  // namespace bb::core
