#include "service/job.h"

#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/faultinject.h"
#include "common/fileio.h"
#include "common/trace.h"
#include "core/blur_masking.h"
#include "core/wire.h"

namespace bb::service {

namespace {

namespace wire = bb::core::wire;

constexpr char kMagic[4] = {'B', 'B', 'J', 'B'};
constexpr std::uint32_t kVersion = 1;

// Plausibility ceilings for hostile loads. Generous for real jobs, tight
// enough that a corrupt length field cannot make the loader allocate or
// scan gigabytes.
constexpr std::uint32_t kMaxStringBytes = 4096;
constexpr std::uint32_t kMaxAttemptRecords = 1000;
constexpr int kMaxShardFanout = 256;   // matches cli::kMaxShardCount
constexpr int kMaxAttemptBudget = 100;
constexpr int kMaxBackoffMs = 3600 * 1000;
constexpr int kMaxDeadlineMs = 24 * 3600 * 1000;
constexpr int kBackoffCapMs = 60 * 1000;

Status Corrupt(const std::string& what) {
  return Status(StatusCode::kDataLoss, what);
}

void PutString(std::string* out, const std::string& s) {
  wire::PutU32(out, static_cast<std::uint32_t>(s.size()));
  out->append(s);
}

// Bounded string read: length-prefixed, capped, with the offending byte
// range named on rejection.
bool TakeString(wire::Reader* r, std::string* out, Status* error,
                const char* field) {
  const std::size_t at = r->pos;
  std::uint32_t len = 0;
  if (!r->TakeU32(&len)) {
    *error = Corrupt(std::string("truncated ") + field + " length at byte " +
                     std::to_string(at));
    return false;
  }
  if (len > kMaxStringBytes) {
    *error = Corrupt(std::string("implausible ") + field + " length " +
                     std::to_string(len) + " at bytes " + std::to_string(at) +
                     "-" + std::to_string(at + 3) + " (cap " +
                     std::to_string(kMaxStringBytes) + ")");
    return false;
  }
  if (r->pos + len > r->bytes.size()) {
    *error = Corrupt(std::string("truncated ") + field + " at byte " +
                     std::to_string(r->pos));
    return false;
  }
  out->assign(r->bytes, r->pos, len);
  r->pos += len;
  return true;
}

}  // namespace

const char* ToString(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
  }
  return "unknown";
}

int BackoffDelayMs(const JobSpec& spec, int attempt) {
  if (attempt <= 0 || spec.backoff_ms <= 0) return 0;
  long delay = spec.backoff_ms;
  for (int k = 1; k < attempt && delay < kBackoffCapMs; ++k) delay *= 2;
  return static_cast<int>(delay < kBackoffCapMs ? delay : kBackoffCapMs);
}

Status ValidateSpec(const JobSpec& spec) {
  const auto invalid = [](const std::string& why) {
    return Status(StatusCode::kInvalidArgument, why);
  };
  if (spec.input.empty()) return invalid("job input path is empty");
  if (spec.output.empty()) return invalid("job output base is empty");
  for (const auto& [name, value] :
       {std::pair<const char*, const std::string&>{"input", spec.input},
        {"output", spec.output},
        {"vb", spec.vb},
        {"max-bad-frames", spec.max_bad_frames}}) {
    if (value.size() > kMaxStringBytes) {
      return invalid(std::string("job ") + name + " longer than " +
                     std::to_string(kMaxStringBytes) + " bytes");
    }
  }
  if (spec.window < 1) return invalid("job window must be >= 1");
  if (spec.shards < 1 || spec.shards > kMaxShardFanout) {
    return invalid("job shards must be in [1, " +
                   std::to_string(kMaxShardFanout) + "], got " +
                   std::to_string(spec.shards));
  }
  if (spec.threads < 0) return invalid("job threads must be >= 0");
  if (spec.max_attempts < 1 || spec.max_attempts > kMaxAttemptBudget) {
    return invalid("job max-attempts must be in [1, " +
                   std::to_string(kMaxAttemptBudget) + "], got " +
                   std::to_string(spec.max_attempts));
  }
  if (spec.backoff_ms < 0 || spec.backoff_ms > kMaxBackoffMs) {
    return invalid("job backoff-ms out of range");
  }
  if (spec.deadline_ms < 0 || spec.deadline_ms > kMaxDeadlineMs) {
    return invalid("job deadline-ms out of range");
  }
  if (!core::PhiInRange(spec.phi)) return invalid("job phi out of range");
  return OkStatus();
}

Status SaveJob(const JobRecord& job, const std::string& path) {
  std::string out;
  out.reserve(128 + job.spec.input.size() + job.spec.output.size());
  out.append(kMagic, 4);
  wire::PutU32(&out, kVersion);
  wire::PutU64(&out, job.id);
  wire::PutU32(&out, static_cast<std::uint32_t>(job.state));
  wire::PutF64(&out, job.spec.phi);
  wire::PutU32(&out, static_cast<std::uint32_t>(job.spec.window));
  wire::PutU32(&out, static_cast<std::uint32_t>(job.spec.shards));
  wire::PutU32(&out, static_cast<std::uint32_t>(job.spec.threads));
  wire::PutU32(&out, static_cast<std::uint32_t>(job.spec.max_attempts));
  wire::PutU32(&out, static_cast<std::uint32_t>(job.spec.backoff_ms));
  wire::PutU32(&out, static_cast<std::uint32_t>(job.spec.deadline_ms));
  PutString(&out, job.spec.input);
  PutString(&out, job.spec.output);
  PutString(&out, job.spec.vb);
  PutString(&out, job.spec.max_bad_frames);
  PutString(&out, job.final_reason);
  wire::PutU32(&out, static_cast<std::uint32_t>(job.attempts.size()));
  for (const JobAttempt& a : job.attempts) {
    wire::PutU32(&out, static_cast<std::uint32_t>(a.delay_ms));
    wire::PutU32(&out,
                 static_cast<std::uint32_t>(static_cast<std::int32_t>(
                     a.exit_code)));
    PutString(&out, a.reason);
  }
  wire::PutU64(&out, wire::Fnv1a64(out));
  return common::AtomicWriteFile(out, path, "job");
}

Result<JobRecord> LoadJob(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    return Status(StatusCode::kNotFound, "no job file")
        .WithContext("job " + path);
  }
  std::string bytes((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
  const auto reject = [&path](const Status& status) {
    return status.WithContext("job " + path);
  };

  // Injected spool faults: the bytes went bad between the sealed write and
  // this read. Occurrence-keyed, so a schedule names "the K-th record load
  // this daemon performs" deterministically.
  if (faultinject::Enabled()) {
    if (const auto kind =
            faultinject::At("spool", faultinject::NextCount("spool"))) {
      if (trace::Enabled()) trace::AddCounter("fault.injected.spool", 1);
      switch (*kind) {
        case faultinject::FaultKind::kFail:
          return reject(
              Status(StatusCode::kIoError, "injected spool read failure"));
        case faultinject::FaultKind::kTruncate:
          bytes.resize(bytes.size() / 2);
          break;
        case faultinject::FaultKind::kCorrupt:
          if (!bytes.empty()) bytes[bytes.size() / 2] ^= 0x20;
          break;
      }
    }
  }

  if (bytes.size() < 4 || std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return reject(Corrupt("bad magic at bytes 0-3 (want BBJB)"));
  }
  if (bytes.size() < 4 + 4 + 8) {
    return reject(Corrupt("truncated before the checksum"));
  }
  // Checksum first: no field below is trusted until the seal verifies.
  {
    const std::string sealed = bytes.substr(0, bytes.size() - 8);
    wire::Reader tail{bytes, bytes.size() - 8};
    std::uint64_t stored = 0;
    (void)tail.TakeU64(&stored);
    if (wire::Fnv1a64(sealed) != stored) {
      return reject(Corrupt("checksum mismatch over bytes 0-" +
                            std::to_string(bytes.size() - 9) +
                            " (record is corrupt or truncated)"));
    }
  }
  const std::string body = bytes.substr(0, bytes.size() - 8);
  wire::Reader r{body, 4};

  std::uint32_t version = 0;
  if (!r.TakeU32(&version)) return reject(Corrupt("truncated version"));
  if (version != kVersion) {
    return reject(Status(StatusCode::kFailedPrecondition,
                         "unsupported BBJB version " +
                             std::to_string(version) + " at bytes 4-7 "
                             "(want " + std::to_string(kVersion) + ")"));
  }

  JobRecord job;
  std::uint32_t state = 0, window = 0, shards = 0, threads = 0;
  std::uint32_t max_attempts = 0, backoff = 0, deadline = 0;
  if (!r.TakeU64(&job.id) || !r.TakeU32(&state) ||
      !r.TakeF64(&job.spec.phi) || !r.TakeU32(&window) ||
      !r.TakeU32(&shards) || !r.TakeU32(&threads) ||
      !r.TakeU32(&max_attempts) || !r.TakeU32(&backoff) ||
      !r.TakeU32(&deadline)) {
    return reject(Corrupt("truncated fixed header (want 52 bytes)"));
  }
  if (state > static_cast<std::uint32_t>(JobState::kFailed)) {
    return reject(Corrupt("implausible state " + std::to_string(state) +
                          " at bytes 16-19 (want 0-3)"));
  }
  job.state = static_cast<JobState>(state);
  job.spec.window = static_cast<int>(window);
  job.spec.shards = static_cast<int>(shards);
  job.spec.threads = static_cast<int>(threads);
  job.spec.max_attempts = static_cast<int>(max_attempts);
  job.spec.backoff_ms = static_cast<int>(backoff);
  job.spec.deadline_ms = static_cast<int>(deadline);

  Status error;
  if (!TakeString(&r, &job.spec.input, &error, "input") ||
      !TakeString(&r, &job.spec.output, &error, "output") ||
      !TakeString(&r, &job.spec.vb, &error, "vb") ||
      !TakeString(&r, &job.spec.max_bad_frames, &error, "max-bad-frames") ||
      !TakeString(&r, &job.final_reason, &error, "final-reason")) {
    return reject(error);
  }

  const std::size_t attempts_at = r.pos;
  std::uint32_t attempt_count = 0;
  if (!r.TakeU32(&attempt_count)) {
    return reject(Corrupt("truncated attempt count at byte " +
                          std::to_string(attempts_at)));
  }
  if (attempt_count > kMaxAttemptRecords) {
    return reject(Corrupt("implausible attempt count " +
                          std::to_string(attempt_count) + " at bytes " +
                          std::to_string(attempts_at) + "-" +
                          std::to_string(attempts_at + 3)));
  }
  job.attempts.reserve(attempt_count);
  for (std::uint32_t i = 0; i < attempt_count; ++i) {
    JobAttempt a;
    std::uint32_t delay = 0, exit_code = 0;
    if (!r.TakeU32(&delay) || !r.TakeU32(&exit_code)) {
      return reject(Corrupt("truncated attempt " + std::to_string(i) +
                            " at byte " + std::to_string(r.pos)));
    }
    a.delay_ms = static_cast<int>(delay);
    a.exit_code = static_cast<std::int32_t>(exit_code);
    if (!TakeString(&r, &a.reason, &error, "attempt reason")) {
      return reject(error);
    }
    job.attempts.push_back(std::move(a));
  }
  if (r.pos != body.size()) {
    return reject(Corrupt(std::to_string(body.size() - r.pos) +
                          " trailing byte(s) after the attempt list at "
                          "byte " + std::to_string(r.pos)));
  }
  if (const Status plausible = ValidateSpec(job.spec); !plausible.ok()) {
    return reject(plausible);
  }
  return job;
}

}  // namespace bb::service
