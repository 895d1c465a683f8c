// bbperf - the end-to-end benchmark's helper binary.
//
//   bbperf gen --call OUT,ACTION,PARTICIPANT,SCENE_SEED,SECONDS ...
//              [--dict DIR,TRUTH.ppm[,TRUTH.ppm...]]
//       Single-threaded input generation: each --call writes OUT (.bbv v2)
//       and OUT.truth.ppm exactly as `backbuster simulate` does (zoom
//       profile, beach VB, 192x144 @ 12 fps). --dict writes the paper's 200
//       candidate backgrounds DIR/cand_NNN.ppm: the true backgrounds read
//       from the TRUTH.ppm files, in order, then near-duplicates and random
//       rooms (datasets::BuildBackgroundDictionary, seed 1).
//
//   bbperf attack ...   bbperf reduce ...
//       Traced in-process mirrors of `backbuster attack` / `backbuster
//       reduce` for the option subset the benchmark and attackd use. They
//       drive the library's public functions - StreamingReconstructor's
//       Begin/BeginPass/PushFrame/EndPass/Finalize protocol, a counting
//       FrameSource and PersonSegmenter decorator - with a span around each
//       call, and write the same output files and result lines as the real
//       binary, which the benchmark checks byte for byte.
//
// Every command records spans (spans.h). When PERFBENCH_SPANS_DIR is set,
// they are written to $PERFBENCH_SPANS_DIR/<pid>.json at exit, together with
// the program's own bb.trace.v1 counters (prefixed "bbtrace.").
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "cli/args.h"
#include "cli/shard_spec.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "core/attacks/location.h"
#include "core/metrics.h"
#include "core/partial.h"
#include "core/reduce.h"
#include "core/streaming.h"
#include "core/vb_masking.h"
#include "core/wire.h"
#include "datasets/datasets.h"
#include "imaging/io.h"
#include "segmentation/segmenter.h"
#include "spans.h"
#include "vbg/compositor.h"
#include "vbg/virtual_source.h"
#include "video/container.h"
#include "video/serialize.h"

using namespace bb;
using perfbench::Count;
using perfbench::Span;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

// Runs fn() inside a span named `name` and returns its result.
template <typename F>
auto Timed(const char* name, F&& fn) {
  const Span span(name);
  return fn();
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= s.size()) {
    const std::size_t at = s.find(sep, begin);
    const std::size_t end = at == std::string::npos ? s.size() : at;
    if (end > begin) parts.push_back(s.substr(begin, end - begin));
    if (at == std::string::npos) break;
    begin = at + 1;
  }
  return parts;
}

double FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size)
                                        : 0.0;
}

std::optional<vbg::StockImage> StockByName(const std::string& name) {
  for (vbg::StockImage s : {vbg::StockImage::kBeach, vbg::StockImage::kOffice,
                            vbg::StockImage::kSpace,
                            vbg::StockImage::kGradient,
                            vbg::StockImage::kForest}) {
    if (name == ToString(s)) return s;
  }
  return std::nullopt;
}

// ---- decorators -------------------------------------------------------------

// Pulls through `inner`, timing each pull as video.decode and counting
// frames decoded and distinct frame indices decoded.
class CountingSource final : public video::FrameSource {
 public:
  explicit CountingSource(video::FrameSource& inner)
      : inner_(inner),
        seen_(static_cast<std::size_t>(inner.info().frame_count), 0) {}

  video::StreamInfo info() const override { return inner_.info(); }
  bool CanSeek() const override { return inner_.CanSeek(); }

 protected:
  video::FramePull DoPull(imaging::Image& frame) override {
    const int index = inner_.cursor();
    const Span span("video.decode");
    video::FramePull pull = inner_.Pull(frame);
    if (pull.status == video::PullStatus::kFrame) {
      Count("video.frames_decoded", 1);
      const auto i = static_cast<std::size_t>(index);
      if (i < seen_.size() && seen_[i] == 0) {
        seen_[i] = 1;
        Count("video.distinct_frames", 1);
      }
    }
    return pull;
  }
  void DoReset() override { inner_.Reset(); }
  Status DoSeek(int frame) override { return inner_.Seek(frame); }

 private:
  video::FrameSource& inner_;
  std::vector<std::uint8_t> seen_;
};

// Forwards to `inner`, timing and counting every Segment call. Segment runs
// concurrently on the thread pool during decomposition, hence the atomic.
class CountingSegmenter final : public segmentation::PersonSegmenter {
 public:
  explicit CountingSegmenter(segmentation::PersonSegmenter& inner)
      : inner_(inner) {}
  ~CountingSegmenter() override {
    Count("segmentation.segment_calls", static_cast<double>(calls_.load()));
  }

  int AnalysisPasses() const override { return inner_.AnalysisPasses(); }
  void BeginAnalysisPass(int pass, const video::StreamInfo& info) override {
    inner_.BeginAnalysisPass(pass, info);
  }
  void PushAnalysisFrame(int pass, const imaging::Image& frame,
                         int frame_index) override {
    inner_.PushAnalysisFrame(pass, frame, frame_index);
  }
  void EndAnalysisPass(int pass) override { inner_.EndAnalysisPass(pass); }
  imaging::Bitmap Segment(const imaging::Image& frame,
                          int frame_index) override {
    const Span span("segmentation.segment");
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.Segment(frame, frame_index);
  }

 private:
  segmentation::PersonSegmenter& inner_;
  std::atomic<long> calls_{0};
};

// ---- gen --------------------------------------------------------------------

constexpr int kDictionarySize = 200;  // the paper's location dictionary
constexpr std::uint64_t kDictionarySeed = 1;

int GenCall(const std::string& spec) {
  const std::vector<std::string> f = Split(spec, ',');
  if (f.size() != 5) {
    return Fail("--call wants OUT,ACTION,PARTICIPANT,SCENE_SEED,SECONDS");
  }
  datasets::E1Case c;
  bool known_action = false;
  for (synth::ActionKind a : synth::kAllActions) {
    if (f[1] == ToString(a)) {
      c.action = a;
      known_action = true;
    }
  }
  if (!known_action) return Fail("unknown action " + f[1]);
  c.participant = std::stoi(f[2]);
  c.scene_seed = std::stoull(f[3]);
  c.duration_s = std::stod(f[4]);
  const datasets::SimScale scale;
  const vbg::CompositeOptions copts;

  const synth::RawRecording raw =
      Timed("synth.record", [&] { return datasets::RecordE1(c, scale); });
  const vbg::StaticImageSource vb(
      vbg::MakeStockImage(vbg::StockImage::kBeach, scale.width, scale.height));
  const vbg::CompositedCall call = Timed("vbg.composite", [&] {
    return vbg::ApplyVirtualBackground(raw, vb, copts);
  });
  if (const Status wrote = Timed(
          "video.write", [&] { return video::WriteBbv2(call.video, f[0]); });
      !wrote.ok()) {
    return Fail(wrote.ToString());
  }
  const Span span("imaging.write");
  if (!imaging::WritePpm(raw.true_background, f[0] + ".truth.ppm")) {
    return Fail("cannot write " + f[0] + ".truth.ppm");
  }
  return 0;
}

int GenDict(const std::string& spec) {
  const std::vector<std::string> f = Split(spec, ',');
  if (f.size() < 2) return Fail("--dict wants DIR,TRUTH.ppm,...");
  std::vector<imaging::Image> truths;
  for (std::size_t i = 1; i < f.size(); ++i) {
    auto truth =
        Timed("imaging.read", [&] { return imaging::ReadImageAuto(f[i]); });
    if (!truth) return Fail("cannot read " + f[i]);
    truths.push_back(std::move(*truth));
  }
  const std::vector<imaging::Image> dict = Timed("synth.dictionary", [&] {
    return datasets::BuildBackgroundDictionary(
        std::move(truths), kDictionarySize, kDictionarySeed);
  });
  const Span span("imaging.write");
  for (std::size_t i = 0; i < dict.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "/cand_%03zu.ppm", i);
    if (!imaging::WritePpm(dict[i], f[0] + name)) {
      return Fail("cannot write " + f[0] + name);
    }
  }
  return 0;
}

int Gen(int argc, char** argv) {
  // Generation is single-threaded: the synthesizers share the thread pool.
  common::SetThreadCount(1);
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return Fail(key + " expects a value");
    if (key != "--call" && key != "--dict") {
      std::fprintf(stderr, "error: unknown option %s\n", key.c_str());
      return 2;
    }
    const int rc =
        key == "--call" ? GenCall(argv[i + 1]) : GenDict(argv[i + 1]);
    if (rc != 0) return rc;
  }
  return 0;
}

// ---- attack / reduce mirrors ------------------------------------------------

// Pass protocol of StreamingReconstructor::Run, driven from outside with a
// span per pass. Mirrors RunPasses, including the seek past frames a shard
// does not decompose; no stop flag is installed.
Status DrivePasses(core::StreamingReconstructor& rec,
                   video::FrameSource& source, int analysis_passes) {
  const video::StreamInfo info = source.info();
  rec.Begin(info);
  const core::StreamingStats& stats = rec.stats();
  const int decomp_begin =
      std::max(stats.shard_range_begin,
               stats.resumed ? stats.resume_frames_done : 0);
  imaging::Image buffer(info.width, info.height);
  for (int pass = 0; pass < rec.TotalPasses(); ++pass) {
    const bool windowed = pass == analysis_passes + 1;
    const Span span(pass < analysis_passes    ? "segmentation.analysis"
                    : pass == analysis_passes ? "core.caller_prepare"
                                              : "core.decompose");
    source.Reset();
    rec.BeginPass(pass);
    int start = 0;
    int stop = info.frame_count;
    if (windowed) {
      stop = stats.shard_range_end;
      if (decomp_begin > 0 && source.CanSeek()) {
        const int skip_to = std::min(decomp_begin, info.frame_count);
        if (source.Seek(skip_to).ok()) {
          rec.SkipDecomposedPrefix(skip_to);
          start = skip_to;
        }
      }
    }
    for (int i = start; i < stop; ++i) {
      const video::FramePull pull = source.Pull(buffer);
      if (pull.status == video::PullStatus::kEnd) break;
      if (pull.status == video::PullStatus::kBad) {
        if (Status budget = rec.PushBadFrame(i, pull.error); !budget.ok()) {
          return budget;
        }
        continue;
      }
      rec.PushFrame(buffer, i);
    }
    rec.EndPass(pass);
  }
  return OkStatus();
}

void CountStreamingStats(const core::StreamingStats& stats) {
  Count("core.frames_decomposed", static_cast<double>(stats.frames_pushed));
  Count("core.window_flushes", static_cast<double>(stats.window_flushes));
  Count("core.peak_window_frames", stats.peak_window_frames);
  Count("core.pool_misses", static_cast<double>(stats.pool_misses));
  Count("core.checkpoint_writes",
        static_cast<double>(stats.checkpoint_writes));
}

// FinishAttack of apps/backbuster.cpp, with spans.
int Finish(const core::ReconstructionResult& rec, int width, int height,
           const std::optional<std::string>& truth_path,
           const std::string& out_base,
           const std::vector<std::string>& locate_paths) {
  std::printf("recovered %.1f%% of the frame\n",
              100.0 * rec.CoverageFraction());
  if (truth_path) {
    const auto truth = Timed(
        "imaging.read", [&] { return imaging::ReadImageAuto(*truth_path); });
    if (!truth) return Fail("cannot read truth image " + *truth_path);
    if (truth->width() != width || truth->height() != height) {
      return Fail("truth image resolution does not match the stream");
    }
    const Span span("core.metrics");
    const auto rbrr = core::Rbrr(rec, *truth);
    std::printf("verified RBRR %.1f%% (precision %.1f%%)\n",
                100.0 * rbrr.verified, 100.0 * rbrr.precision);
  }
  {
    const Span span("imaging.write");
    if (auto path = imaging::WriteImageAuto(rec.background, out_base)) {
      std::printf("wrote %s\n", path->c_str());
    }
    if (auto path = imaging::WriteImageAuto(
            imaging::MaskToImage(rec.coverage), out_base + ".coverage")) {
      std::printf("wrote %s\n", path->c_str());
    }
  }
  if (locate_paths.empty()) return 0;
  std::vector<imaging::Image> dict;
  dict.reserve(locate_paths.size());
  {
    const Span span("imaging.read");
    for (const auto& path : locate_paths) {
      auto img = imaging::ReadImageAuto(path);
      if (!img) return Fail("cannot read --locate candidate " + path);
      if (img->width() != width || img->height() != height) {
        return Fail("--locate candidate " + path +
                    " resolution does not match the stream");
      }
      dict.push_back(std::move(*img));
    }
  }
  const std::vector<core::RankedCandidate> ranking =
      Timed("core.locate", [&] {
        return core::RankLocations(rec.background, rec.coverage, dict, {});
      });
  Count("core.locate_candidates", static_cast<double>(dict.size()));
  std::printf("location ranking (pruned search):\n");
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    std::printf("  %zu. %s  score %.4f\n", i + 1,
                locate_paths[ranking[i].index].c_str(), ranking[i].score);
  }
  return 0;
}

int Attack(const cli::Args& args) {
  const auto in = args.Get("in");
  if (!in) return Fail("attack requires --in <file.bbv>");
  const std::string out_base = args.Get("out", *in + ".recon");
  const auto vb_name = args.Get("vb");
  const auto truth_path = args.Get("truth");
  const std::vector<std::string> locate_paths =
      Split(args.Get("locate", ""), ',');
  const bool stream = args.GetFlag("stream");
  const int window = static_cast<int>(args.GetInt("window", 64));
  const std::string checkpoint = args.Get("checkpoint", "");
  int shard_index = 0, shard_count = 0;
  if (const auto shard = args.Get("shard")) {
    const auto parsed = cli::ParseShardSpec(*shard);
    if (!parsed.ok()) return Fail(parsed.status().ToString());
    shard_index = parsed->index;
    shard_count = parsed->count;
  }
  const std::string partial_out = args.Get("partial-out", "");
  if (!args.UnconsumedKeys().empty()) {
    for (const auto& key : args.UnconsumedKeys()) {
      std::fprintf(stderr, "error: option --%s is not mirrored\n",
                   key.c_str());
    }
    return 2;
  }
  std::optional<vbg::StockImage> stock;
  if (vb_name) {
    stock = StockByName(*vb_name);
    if (!stock) return Fail("unknown --vb " + *vb_name);
  }

  segmentation::ClassicalSegmenter classical;
  CountingSegmenter segmenter(classical);
  const int analysis_passes = segmenter.AnalysisPasses();

  if (stream) {
    auto opened =
        Timed("video.open", [&] { return video::BbvFileSource::Open(*in); });
    if (!opened.ok()) return Fail(opened.status().ToString());
    CountingSource source(*opened);
    const video::StreamInfo info = source.info();
    std::optional<core::VbReference> ref;
    if (stock) {
      ref = core::VbReference::KnownImage(
          vbg::MakeStockImage(*stock, info.width, info.height));
    } else {
      ref = Timed("core.vb_derive", [&] {
        return core::VbReference::DeriveImageStreaming(source);
      });
    }
    core::StreamingOptions sopts;
    sopts.window_frames = window;
    sopts.checkpoint_path = checkpoint;
    sopts.shard_index = shard_index;
    sopts.shard_count = shard_count;
    sopts.config_salt = core::wire::Fnv1a64(
        stock ? "stock:" + *vb_name : std::string("derived"));
    core::StreamingReconstructor rec(*ref, segmenter, sopts);
    if (const Status run = DrivePasses(rec, source, analysis_passes);
        !run.ok()) {
      return Fail(run.ToString());
    }
    if (!checkpoint.empty()) {
      // Every checkpoint of a run has the same size; the last one is still
      // on disk until finalization supersedes it.
      Count("core.checkpoint_bytes",
            static_cast<double>(rec.stats().checkpoint_writes) *
                FileBytes(checkpoint));
    }
    if (shard_count > 0) {
      const core::PartialResult partial =
          Timed("core.finalize", [&] { return rec.FinalizePartial(); });
      CountStreamingStats(rec.stats());
      const std::string path =
          partial_out.empty()
              ? *in + ".shard" + std::to_string(shard_index) + "of" +
                    std::to_string(shard_count) + ".bbpr"
              : partial_out;
      if (const Status saved = Timed("core.partial_save", [&] {
            return core::SavePartial(partial, path);
          });
          !saved.ok()) {
        return Fail(saved.ToString());
      }
      Count("core.partial_bytes", FileBytes(path));
      std::printf("wrote %s (mergeable partial)\n", path.c_str());
      return 0;
    }
    const core::ReconstructionResult result =
        Timed("core.finalize", [&] { return rec.Finalize(); });
    CountStreamingStats(rec.stats());
    return Finish(result, info.width, info.height, truth_path, out_base,
                  locate_paths);
  }

  // Batch path: bulk load, then the window covers the whole call
  // (Reconstructor::Run).
  const auto call =
      Timed("video.decode", [&] { return video::LoadBbv(*in); });
  if (!call.ok()) return Fail(call.status().ToString());
  Count("video.frames_decoded", call->frame_count());
  Count("video.distinct_frames", call->frame_count());
  // Like the binary, the batch path derives a reference even when a stock
  // VB replaces it.
  std::optional<core::VbReference> ref = Timed(
      "core.vb_derive", [&] { return core::VbReference::DeriveImage(*call); });
  if (stock) {
    ref = core::VbReference::KnownImage(
        vbg::MakeStockImage(*stock, call->width(), call->height()));
  }
  core::StreamingOptions sopts;
  sopts.window_frames = std::max(1, call->frame_count());
  core::StreamingReconstructor rec(*ref, segmenter, sopts);
  video::VideoStreamSource source(*call);
  if (const Status run = DrivePasses(rec, source, analysis_passes);
      !run.ok()) {
    return Fail(run.ToString());
  }
  const core::ReconstructionResult result =
      Timed("core.finalize", [&] { return rec.Finalize(); });
  CountStreamingStats(rec.stats());
  return Finish(result, call->width(), call->height(), truth_path, out_base,
                locate_paths);
}

int Reduce(const cli::Args& args) {
  const std::vector<std::string> paths = Split(args.Get("in", ""), ',');
  if (paths.empty()) return Fail("reduce requires --in <a.bbpr,b.bbpr,...>");
  const auto truth_path = args.Get("truth");
  const std::string out_base = args.Get("out", paths.front() + ".recon");
  if (!args.UnconsumedKeys().empty()) return 2;
  std::vector<core::PartialResult> partials;
  for (const std::string& path : paths) {
    auto loaded =
        Timed("core.partial_load", [&] { return core::LoadPartial(path); });
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    partials.push_back(std::move(*loaded));
  }
  const video::StreamInfo info = partials.front().info;
  auto merged = Timed("core.reduce", [&] {
    return core::ReducePartials(std::move(partials));
  });
  if (!merged.ok()) return Fail(merged.status().ToString());
  return Finish(*merged, info.width, info.height, truth_path, out_base, {});
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::MarkMainThread();
  const std::vector<std::string> argv_copy(argv, argv + argc);
  const std::string command = argc > 1 ? argv[1] : "";
  int rc = 2;
  try {
    const std::string root_name = "bbperf." + command;
    const Span root(root_name.c_str());
    if (command == "gen") {
      rc = Gen(argc, argv);
    } else if (command == "attack" || command == "reduce") {
      const cli::Args args = cli::Args::Parse(argc, argv, {"stream"});
      if (!args.errors().empty()) return 2;
      if (const auto threads = args.GetInt("threads")) {
        common::SetThreadCount(static_cast<int>(*threads));
      }
      // The program's own counters (location.*, stream.*, ...) ride along.
      trace::Enable();
      rc = command == "attack" ? Attack(args) : Reduce(args);
      for (const auto& c : trace::Capture().counters) {
        Count("bbtrace." + c.name, static_cast<double>(c.value));
      }
    } else {
      std::fprintf(stderr,
                   "usage: bbperf gen|attack|reduce ... (see bbperf.cpp)\n");
    }
  } catch (const std::exception& e) {
    // Malformed --call/--dict numbers (std::stoi) and the like.
    rc = Fail(e.what());
  }
  if (const char* dir = std::getenv("PERFBENCH_SPANS_DIR")) {
    const std::string path =
        std::string(dir) + "/" + std::to_string(::getpid()) + ".json";
    if (!perfbench::WriteSpans(path, argv_copy, rc)) {
      return Fail("cannot write " + path);
    }
  }
  return rc;
}
