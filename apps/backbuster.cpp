// backbuster - command-line front end for the Background Buster library.
//
//   backbuster simulate --out call.bbv [options]
//       Synthesizes a video call, applies a virtual background with the
//       simulated calling software, and writes the *attacked* stream (what
//       an adversary records). Ground-truth artifacts are written next to
//       it for later evaluation.
//
//   backbuster attack --in call.bbv [options]
//       Runs the reconstruction framework on any .bbv stream like a real
//       adversary: derives the VB from the footage (or matches a stock
//       image) and segments the caller classically - no ground truth used.
//       Writes the reconstruction + coverage and prints statistics. When
//       --truth <image.ppm> is given, verified RBRR is reported too.
//
//   backbuster attack --in call.bbv --stream --shard I/N [options]
//       Map phase of the sharded attack: decomposes only the I-th of N
//       equal frame ranges and writes a sealed mergeable partial (.bbpr)
//       instead of a reconstruction. N workers can run concurrently on
//       the same stream.
//
//   backbuster reduce --in a.bbpr,b.bbpr,... [options]
//       Reduce phase: merges the partials of all N shards into output
//       bit-identical to a single-process attack.
//
//   backbuster info --in call.bbv
//       Prints stream properties.
//
// Run any command with --help for its options.
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "cli/args.h"
#include "cli/shard_spec.h"
#include "common/faultinject.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "core/blur_masking.h"
#include "core/metrics.h"
#include "core/partial.h"
#include "core/attacks/location.h"
#include "core/reconstruction.h"
#include "core/reduce.h"
#include "core/streaming.h"
#include "core/wire.h"
#include "datasets/datasets.h"
#include "imaging/io.h"
#include "segmentation/segmenter.h"
#include "vbg/compositor.h"
#include "vbg/dynamic_background.h"
#include "video/container.h"
#include "video/serialize.h"

using namespace bb;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

// Set by the SIGINT/SIGTERM handler; streaming attacks poll it between
// frame pulls (StreamingOptions::stop) so an interrupt seals the in-flight
// checkpoint instead of abandoning the window. An interrupted-but-
// checkpointed run exits 3 (attackd treats that as resumable, not failed).
std::atomic<bool> g_stop{false};

constexpr int kExitInterrupted = 3;

void OnStopSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

void InstallStopHandler() {
  struct sigaction sa = {};
  sa.sa_handler = OnStopSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

int Usage() {
  std::printf(
      "usage: backbuster <command> [options]\n"
      "\n"
      "commands:\n"
      "  simulate   synthesize an attacked call  (--help for options)\n"
      "  attack     reconstruct the hidden background from a .bbv stream\n"
      "             (--shard i/N emits a mergeable partial instead)\n"
      "  reduce     merge shard partials into the single-process result\n"
      "  info       print .bbv stream properties\n"
      "\n"
      "global options:\n"
      "  --threads N   worker threads (default: BB_THREADS env, else all\n"
      "                hardware threads; 1 = fully serial)\n"
      "  --trace FILE  collect per-stage timings and pipeline counters,\n"
      "                written as JSON when the command finishes\n"
      "  --faults SPEC deterministic fault injection, e.g.\n"
      "                read@7=truncate,read@19=corrupt,alloc@3=fail\n"
      "                (same grammar as the BB_FAULTS env variable)\n");
  return 2;
}

std::optional<synth::ActionKind> ActionByName(const std::string& name) {
  for (synth::ActionKind a : synth::kAllActions) {
    if (name == ToString(a)) return a;
  }
  return std::nullopt;
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

// ---- simulate -------------------------------------------------------------

int Simulate(const cli::Args& args) {
  if (args.GetFlag("help")) {
    std::printf(
        "backbuster simulate --out call.bbv\n"
        "  --action NAME      one of still, lean_forward, lean_backward,\n"
        "                     arm_wave, rotate, clap, stretch, type, drink,\n"
        "                     exit_enter (default arm_wave)\n"
        "  --speed CLASS      slow | average | fast (default average)\n"
        "  --participant N    0..4 (default 0)\n"
        "  --scene-seed N     room layout seed (default 1)\n"
        "  --lighting MODE    on | off (default on)\n"
        "  --vb NAME          beach|office|space|gradient|forest (beach)\n"
        "  --profile NAME     zoom | skype (default zoom)\n"
        "  --dynamic          apply the dynamic-VB mitigation\n"
        "  --format V         container format: v2 (indexed, deduplicating,\n"
        "                     seekable) or v1 (flat legacy) (default v2)\n"
        "  --duration S       seconds (default 12)\n"
        "  --fps F            frames/second (default 12)\n"
        "  --width W --height H   resolution (default 192x144)\n"
        "  --truth-out BASE   also write the true background image "
        "(default: <out>.truth)\n"
        "  --threads N        worker threads (default: BB_THREADS env,\n"
        "                     else all hardware threads)\n"
        "  --trace FILE       write per-stage timings/counters as JSON\n");
    return 0;
  }
  const auto out = args.Get("out");
  if (!out) return Fail("simulate requires --out <file.bbv>");

  datasets::E1Case c;
  const std::string action_name = args.Get("action", "arm_wave");
  const auto action = ActionByName(action_name);
  if (!action) return Fail("unknown --action " + action_name);
  c.action = *action;
  const std::string speed = args.Get("speed", "average");
  c.speed = speed == "slow"      ? synth::SpeedClass::kSlow
            : speed == "fast"    ? synth::SpeedClass::kFast
            : synth::SpeedClass::kAverage;
  c.participant = static_cast<int>(args.GetInt("participant", 0));
  c.scene_seed = static_cast<std::uint64_t>(args.GetInt("scene-seed", 1));
  c.lighting = args.Get("lighting", "on") == "off" ? synth::Lighting::kOff
                                                   : synth::Lighting::kOn;
  c.duration_s = args.GetDouble("duration", 12.0);

  datasets::SimScale scale;
  scale.width = static_cast<int>(args.GetInt("width", 192));
  scale.height = static_cast<int>(args.GetInt("height", 144));
  scale.fps = args.GetDouble("fps", 12.0);

  const std::string vb_name = args.Get("vb", "beach");
  const auto vb_kind = StockByName(vb_name);
  if (!vb_kind) return Fail("unknown --vb " + vb_name);

  vbg::CompositeOptions copts;
  const std::string profile = args.Get("profile", "zoom");
  if (profile == "skype") {
    copts.profile = vbg::SkypeProfile();
  } else if (profile != "zoom") {
    return Fail("unknown --profile " + profile);
  }
  const bool dynamic_vb = args.GetFlag("dynamic");
  if (dynamic_vb) {
    copts.adapter = vbg::MakeDynamicVbAdapter({}, c.scene_seed ^ 0xD1ull);
  }
  const std::string format = args.Get("format", "v2");
  if (format != "v1" && format != "v2") {
    return Fail("unknown --format " + format + " (want v1 or v2)");
  }
  const std::string truth_base = args.Get("truth-out", *out + ".truth");
  if (const int rc = args.RejectBadOptions()) return rc;

  const synth::RawRecording raw = datasets::RecordE1(c, scale);
  const vbg::StaticImageSource vb(
      vbg::MakeStockImage(*vb_kind, scale.width, scale.height));
  const vbg::CompositedCall call =
      vbg::ApplyVirtualBackground(raw, vb, copts);

  if (const Status wrote = format == "v1" ? video::WriteBbv(call.video, *out)
                                          : video::WriteBbv2(call.video, *out);
      !wrote.ok()) {
    return Fail(wrote.ToString());
  }
  // Ground truth as PPM (the attack command can read it back).
  if (!imaging::WritePpm(raw.true_background, truth_base + ".ppm")) {
    return Fail("cannot write " + truth_base + ".ppm");
  }
  std::printf("wrote %s (%d frames, %dx%d @ %.0f fps, %s/%s%s)\n",
              out->c_str(), call.video.frame_count(), scale.width,
              scale.height, scale.fps, profile.c_str(), vb_name.c_str(),
              dynamic_vb ? ", dynamic VB" : "");
  std::printf("wrote %s.ppm (true background)\n", truth_base.c_str());
  return 0;
}

// ---- attack ----------------------------------------------------------------

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t comma = csv.find(',', begin);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > begin) parts.push_back(csv.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return parts;
}

// Location inference (paper sec. VI): rank the candidate backgrounds by
// hue similarity to the reconstruction, best first.
int LocateStep(const core::ReconstructionResult& rec, int width, int height,
               const std::vector<std::string>& candidate_paths) {
  std::vector<imaging::Image> dict;
  dict.reserve(candidate_paths.size());
  for (const auto& path : candidate_paths) {
    const auto img = imaging::ReadImageAuto(path);
    if (!img) return Fail("cannot read --locate candidate " + path);
    if (img->width() != width || img->height() != height) {
      return Fail("--locate candidate " + path +
                  " resolution does not match the stream");
    }
    dict.push_back(*img);
  }
  const auto ranking = core::RankLocations(rec.background, rec.coverage, dict);
  std::printf("location ranking:\n");
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    std::printf("  %zu. %s  score %.4f\n", i + 1,
                candidate_paths[ranking[i].index].c_str(), ranking[i].score);
  }
  return 0;
}

// Scoring + output tail shared by the batch and streaming attack paths.
int FinishAttack(const core::ReconstructionResult& rec, int width, int height,
                 const std::optional<std::string>& truth_path,
                 const std::string& out_base,
                 const std::vector<std::string>& locate_paths) {
  std::printf("recovered %.1f%% of the frame\n",
              100.0 * rec.CoverageFraction());
  if (truth_path) {
    const auto truth = imaging::ReadImageAuto(*truth_path);
    if (!truth) return Fail("cannot read truth image " + *truth_path);
    if (truth->width() != width || truth->height() != height) {
      return Fail("truth image resolution does not match the stream");
    }
    const auto rbrr = core::Rbrr(rec, *truth);
    std::printf("verified RBRR %.1f%% (precision %.1f%%)\n",
                100.0 * rbrr.verified, 100.0 * rbrr.precision);
  }
  if (auto path = imaging::WriteImageAuto(rec.background, out_base)) {
    std::printf("wrote %s\n", path->c_str());
  }
  if (auto path = imaging::WriteImageAuto(
          imaging::MaskToImage(rec.coverage), out_base + ".coverage")) {
    std::printf("wrote %s\n", path->c_str());
  }
  if (!locate_paths.empty()) {
    return LocateStep(rec, width, height, locate_paths);
  }
  return 0;
}

int Attack(const cli::Args& args) {
  if (args.GetFlag("help")) {
    std::printf(
        "backbuster attack --in call.bbv\n"
        "  --vb NAME         match a stock image (beach|office|...) instead\n"
        "                    of deriving the VB from the footage\n"
        "  --phi R           blending-blur radius (default %.1f)\n"
        "  --truth FILE      score against this image (.ppm or .png)\n"
        "  --out BASE        output image base name (default: <in>.recon)\n"
        "  --stream          stream the .bbv instead of loading it: frame\n"
        "                    memory is bounded by the window, not the call\n"
        "  --window N        streaming window size in frames (default 64)\n"
        "  --max-bad-frames B  fail once more than B frames are unreadable;\n"
        "                    B is a count (e.g. 5) or a percentage (e.g. 10%%)\n"
        "                    of the stream (default: unlimited; needs --stream)\n"
        "  --checkpoint FILE streaming progress checkpoint: written after\n"
        "                    every window flush, resumed from on restart\n"
        "                    (only with the same --phi and VB; otherwise\n"
        "                    the run starts fresh), removed on success\n"
        "                    (needs --stream)\n"
        "  --shard I/N       decompose only the I-th (0-based) of N equal\n"
        "                    frame ranges and write a sealed mergeable\n"
        "                    partial for `backbuster reduce` instead of a\n"
        "                    reconstruction (needs --stream)\n"
        "  --partial-out F   partial output path (default:\n"
        "                    <in>.shard<I>of<N>.bbpr; needs --shard)\n"
        "  --locate F1,F2,.. rank these candidate background images by\n"
        "                    similarity to the reconstruction (location\n"
        "                    inference; images must match the stream size)\n"
        "  --threads N       worker threads (default: BB_THREADS env,\n"
        "                    else all hardware threads)\n"
        "  --trace FILE      write per-stage timings/counters as JSON\n",
        core::kDefaultPhi);
    return 0;
  }
  const auto in = args.Get("in");
  if (!in) return Fail("attack requires --in <file.bbv>");
  const std::string out_base = args.Get("out", *in + ".recon");
  const auto vb_name = args.Get("vb");
  const double phi = args.GetDouble("phi", core::kDefaultPhi);
  if (!core::PhiInRange(phi)) {
    std::fprintf(stderr, "error: --phi must be in [0, %g], got %g\n",
                 core::kMaxPhi, phi);
    return 2;
  }
  const auto truth_path = args.Get("truth");
  const std::vector<std::string> locate_paths = SplitCsv(args.Get("locate", ""));
  const bool stream = args.GetFlag("stream");
  const int window = static_cast<int>(args.GetInt("window", 64));
  if (window < 1) return Fail("--window must be >= 1");

  // Degradation budget: a plain count, or a percentage of the stream.
  int max_bad_frames = -1;
  double max_bad_fraction = -1.0;
  if (const auto bad = args.Get("max-bad-frames")) {
    const auto reject = [] {
      return Fail(
          "--max-bad-frames expects a count (e.g. 5) or percentage "
          "(e.g. 10%)");
    };
    try {
      std::size_t pos = 0;
      if (!bad->empty() && bad->back() == '%') {
        const double pct = std::stod(*bad, &pos);
        if (pos + 1 != bad->size() || pct < 0.0) return reject();
        max_bad_fraction = pct / 100.0;
      } else {
        const long v = std::stol(*bad, &pos);
        if (pos != bad->size() || v < 0) return reject();
        max_bad_frames = static_cast<int>(v);
      }
    } catch (const std::exception&) {
      return reject();
    }
    if (!stream) return Fail("--max-bad-frames requires --stream");
  }
  const std::string checkpoint = args.Get("checkpoint", "");
  if (!checkpoint.empty() && !stream) {
    return Fail("--checkpoint requires --stream");
  }

  // Shard mode: --shard I/N marks this process as the map-phase worker for
  // the I-th of N equal frame ranges.
  int shard_index = 0, shard_count = 0;
  if (const auto shard = args.Get("shard")) {
    // Strict parse: digits-only I/N, 0 <= I < N <= 256. Hostile spellings
    // ("0/0", "-1/4", " 1/4", "0x1/4", ...) are usage errors (exit 2)
    // naming what was wrong, not permissive stol prefixes.
    const auto parsed = cli::ParseShardSpec(*shard);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   parsed.status().message().c_str());
      return 2;
    }
    shard_index = parsed->index;
    shard_count = parsed->count;
    if (!stream) return Fail("--shard requires --stream");
    if (truth_path) {
      return Fail(
          "--shard emits a partial, not a reconstruction; pass --truth to "
          "`backbuster reduce` instead");
    }
  }
  const std::string partial_out = args.Get("partial-out", "");
  if (!partial_out.empty() && shard_count == 0) {
    return Fail("--partial-out requires --shard");
  }
  if (const int rc = args.RejectBadOptions()) return rc;

  std::optional<vbg::StockImage> stock;
  if (vb_name) {
    stock = StockByName(*vb_name);
    if (!stock) return Fail("unknown --vb " + *vb_name);
  }

  if (stream) {
    // Streaming path: the call is never materialized - the .bbv is pulled
    // once per pass and at most `window` frames are resident.
    auto source = video::BbvFileSource::Open(*in);
    if (!source.ok()) return Fail(source.status().ToString());
    const video::StreamInfo info = source->info();
    std::printf("streaming %s: %d frames %dx%d @ %.1f fps (window %d)\n",
                in->c_str(), info.frame_count, info.width, info.height,
                info.fps, window);

    std::optional<core::VbReference> ref;
    if (stock) {
      ref = core::VbReference::KnownImage(
          vbg::MakeStockImage(*stock, info.width, info.height));
      std::printf("using known stock VB '%s'\n", vb_name->c_str());
    } else {
      ref = core::VbReference::DeriveImageStreaming(*source);
      std::printf("derived VB from footage (%.1f%% of the frame)\n",
                  100.0 * ref->ValidFraction());
    }

    segmentation::ClassicalSegmenter segmenter;
    core::StreamingOptions sopts;
    sopts.window_frames = window;
    sopts.recon.phi = phi;
    sopts.max_bad_frames = max_bad_frames;
    sopts.max_bad_fraction = max_bad_fraction;
    sopts.checkpoint_path = checkpoint;
    sopts.shard_index = shard_index;
    sopts.shard_count = shard_count;
    // VB reference identity, folded into the partial's config hash so the
    // reducer refuses to merge partials built against different references.
    sopts.config_salt = core::wire::Fnv1a64(
        stock ? "stock:" + *vb_name : std::string("derived"));
    // SIGINT/SIGTERM stop the run between frame pulls; with --checkpoint
    // the in-flight window is flushed and sealed first, and the process
    // exits 3 so supervisors (attackd) treat it as resumable.
    InstallStopHandler();
    sopts.stop = &g_stop;
    core::StreamingReconstructor reconstructor(*ref, segmenter, sopts);

    const auto interrupted = [](const Status& status) {
      return g_stop.load(std::memory_order_relaxed) &&
             status.code() == StatusCode::kAborted;
    };

    if (shard_count > 0) {
      // Map phase: emit a sealed mergeable partial for this frame range.
      const auto run = reconstructor.RunPartial(*source);
      const core::StreamingStats& stats = reconstructor.stats();
      if (!reconstructor.checkpoint_status().ok()) {
        std::fprintf(stderr, "warning: starting fresh: %s\n",
                     reconstructor.checkpoint_status().ToString().c_str());
      }
      if (stats.resumed) {
        std::printf("resumed from %s at frame %d/%d\n", checkpoint.c_str(),
                    stats.resume_frames_done, info.frame_count);
      }
      if (!run.ok()) {
        if (interrupted(run.status())) {
          std::fprintf(stderr, "%s\n", run.status().message().c_str());
          return kExitInterrupted;
        }
        return Fail(run.status().ToString());
      }
      std::printf("shard %d/%d decomposed frames [%d, %d)\n", shard_index,
                  shard_count, stats.shard_range_begin,
                  stats.shard_range_end);
      if (stats.frames_quarantined > 0) {
        std::printf(
            "degraded: %d of %d frames were unreadable and quarantined "
            "(%llu bad pulls across passes)\n",
            stats.frames_quarantined, info.frame_count,
            static_cast<unsigned long long>(stats.bad_frame_events));
      }
      const std::string partial_path =
          partial_out.empty()
              ? *in + ".shard" + std::to_string(shard_index) + "of" +
                    std::to_string(shard_count) + ".bbpr"
              : partial_out;
      if (const Status saved = core::SavePartial(*run, partial_path);
          !saved.ok()) {
        return Fail(saved.ToString());
      }
      std::printf("wrote %s (mergeable partial)\n", partial_path.c_str());
      return 0;
    }

    const auto run = reconstructor.Run(*source);
    const core::StreamingStats& stats = reconstructor.stats();
    if (!reconstructor.checkpoint_status().ok()) {
      std::fprintf(stderr, "warning: starting fresh: %s\n",
                   reconstructor.checkpoint_status().ToString().c_str());
    }
    if (stats.resumed) {
      std::printf("resumed from %s at frame %d/%d\n", checkpoint.c_str(),
                  stats.resume_frames_done, info.frame_count);
    }
    if (!run.ok()) {
      if (interrupted(run.status())) {
        std::fprintf(stderr, "%s\n", run.status().message().c_str());
        return kExitInterrupted;
      }
      return Fail(run.status().ToString());
    }
    const core::ReconstructionResult& rec = *run;
    std::printf(
        "peak window residency %d/%d frames over %llu flushes "
        "(pool: %llu hits, %llu misses)\n",
        stats.peak_window_frames, stats.window_capacity,
        static_cast<unsigned long long>(stats.window_flushes),
        static_cast<unsigned long long>(stats.pool_hits),
        static_cast<unsigned long long>(stats.pool_misses));
    if (stats.frames_quarantined > 0) {
      std::printf(
          "degraded: %d of %d frames were unreadable and quarantined "
          "(%llu bad pulls across passes)\n",
          stats.frames_quarantined, info.frame_count,
          static_cast<unsigned long long>(stats.bad_frame_events));
    }
    return FinishAttack(rec, info.width, info.height, truth_path, out_base,
                        locate_paths);
  }

  // Batch path: load the call and reconstruct it in one window over the
  // in-memory frames. The frames are dropped before the scoring and
  // --locate steps, which load images of their own.
  std::optional<core::ReconstructionResult> rec;
  video::StreamInfo info;
  {
    const auto call = video::LoadBbv(*in);
    if (!call.ok()) return Fail(call.status().ToString());
    info = {call->width(), call->height(), call->frame_count(), call->fps()};
    std::printf("loaded %s: %d frames %dx%d @ %.1f fps\n", in->c_str(),
                info.frame_count, info.width, info.height, info.fps);

    // Build the VB reference the way a real adversary would: match the
    // named stock image, or derive the VB from the footage.
    const core::VbReference ref =
        stock ? core::VbReference::KnownImage(
                    vbg::MakeStockImage(*stock, info.width, info.height))
              : core::VbReference::DeriveImage(*call);
    if (stock) {
      std::printf("using known stock VB '%s'\n", vb_name->c_str());
    } else {
      std::printf("derived VB from footage (%.1f%% of the frame)\n",
                  100.0 * ref.ValidFraction());
    }

    segmentation::ClassicalSegmenter segmenter;
    core::StreamingOptions sopts;
    sopts.window_frames = std::max(1, info.frame_count);
    sopts.recon.phi = phi;
    core::StreamingReconstructor reconstructor(ref, segmenter, sopts);
    video::VideoStreamSource source(*call);
    auto run = reconstructor.Run(source);
    if (!run.ok()) return Fail(run.status().ToString());
    rec = std::move(*run);
  }
  return FinishAttack(*rec, info.width, info.height, truth_path, out_base,
                      locate_paths);
}

// ---- reduce -----------------------------------------------------------------

int Reduce(const cli::Args& args) {
  if (args.GetFlag("help")) {
    std::printf(
        "backbuster reduce --in a.bbpr,b.bbpr,...\n"
        "  --in LIST         comma-separated shard partials; together they\n"
        "                    must cover every frame of the stream exactly\n"
        "                    once (any order)\n"
        "  --out BASE        output image base name (default: <first>.recon)\n"
        "  --truth FILE      score against this image (.ppm or .png)\n"
        "  --locate F1,F2,.. rank candidate backgrounds against the merged\n"
        "                    reconstruction (see `attack --help`)\n"
        "  --threads N       worker threads (default: BB_THREADS env,\n"
        "                    else all hardware threads)\n"
        "  --trace FILE      write per-stage timings/counters as JSON\n");
    return 0;
  }
  const auto in = args.Get("in");
  if (!in || in->empty()) {
    return Fail("reduce requires --in <a.bbpr,b.bbpr,...>");
  }
  const std::vector<std::string> paths = SplitCsv(*in);
  if (paths.empty()) {
    return Fail("reduce requires --in <a.bbpr,b.bbpr,...>");
  }
  const auto truth_path = args.Get("truth");
  const std::string out_base = args.Get("out", paths.front() + ".recon");
  const std::vector<std::string> locate_paths = SplitCsv(args.Get("locate", ""));
  if (const int rc = args.RejectBadOptions()) return rc;

  std::vector<core::PartialResult> partials;
  partials.reserve(paths.size());
  for (const std::string& path : paths) {
    auto loaded = core::LoadPartial(path);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    std::printf("loaded %s: frames [%d, %d) of %d\n", path.c_str(),
                loaded->range_begin, loaded->range_end,
                loaded->info.frame_count);
    partials.push_back(std::move(*loaded));
  }
  const video::StreamInfo info = partials.front().info;

  core::ReduceStats rstats;
  auto merged = core::ReducePartials(std::move(partials), &rstats);
  if (!merged.ok()) return Fail(merged.status().ToString());
  std::printf("merged %d partials covering %d frames\n",
              rstats.partials_merged, rstats.frames_covered);
  if (rstats.quarantined > 0) {
    std::printf(
        "degraded: %d of %d frames were quarantined across shards "
        "(%llu bad pulls)\n",
        rstats.quarantined, rstats.frames_covered,
        static_cast<unsigned long long>(rstats.bad_frame_events));
  }
  return FinishAttack(*merged, info.width, info.height, truth_path,
                      out_base, locate_paths);
}

// ---- info -------------------------------------------------------------------

int Info(const cli::Args& args) {
  const auto in = args.Get("in");
  if (!in) return Fail("info requires --in <file.bbv>");
  if (const int rc = args.RejectBadOptions()) return rc;
  // Open as a source (index only) rather than loading every frame.
  auto source = video::BbvFileSource::Open(*in);
  if (!source.ok()) return Fail(source.status().ToString());
  const video::StreamInfo info = source->info();
  const double duration = info.fps > 0.0 ? info.frame_count / info.fps : 0.0;
  std::printf("%s: %d frames, %dx%d @ %.2f fps, %.1f s (BBV%d)\n",
              in->c_str(), info.frame_count, info.width, info.height,
              info.fps, duration, source->version());
  if (source->version() == 2) {
    const auto layout = video::InspectBbv2(*in);
    if (!layout.ok()) return Fail(layout.status().ToString());
    std::printf("  %d unique frames stored (dedup ratio %.2fx)\n",
                layout->blob_count(), layout->DedupRatio());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Switches that never take a value (and so never swallow the token that
  // follows them on the command line).
  const cli::Args args =
      cli::Args::Parse(argc, argv, {"help", "dynamic", "stream"});
  for (const auto& err : args.errors()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
  }
  if (!args.errors().empty()) return 2;

  if (const auto threads = args.GetInt("threads")) {
    if (*threads < 1) return Fail("--threads must be >= 1");
    common::SetThreadCount(static_cast<int>(*threads));
  } else if (args.Has("threads")) {
    return Fail("--threads expects an integer");
  }

  // Global: --trace FILE collects stage timings/counters across whatever
  // command runs and dumps them as JSON before exit. Collection never feeds
  // back into the pipeline, so outputs are identical with or without it.
  const auto trace_path = args.Get("trace");
  if (trace_path) {
    if (trace_path->empty()) return Fail("--trace expects a file path");
    trace::Enable();
  }

  // Global: --faults SPEC arms the deterministic fault-injection schedule
  // (overriding any BB_FAULTS from the environment).
  if (const auto faults = args.Get("faults")) {
    if (faults->empty()) return Fail("--faults expects a schedule spec");
    if (const Status st = faultinject::Configure(*faults); !st.ok()) {
      return Fail(st.ToString());
    }
    std::fprintf(stderr, "fault injection active: %s\n", faults->c_str());
  }

  int rc;
  if (args.command() == "simulate") {
    rc = Simulate(args);
  } else if (args.command() == "attack") {
    rc = Attack(args);
  } else if (args.command() == "reduce") {
    rc = Reduce(args);
  } else if (args.command() == "info") {
    rc = Info(args);
  } else {
    rc = Usage();
  }

  if (trace_path) {
    if (trace::WriteJson(*trace_path)) {
      std::printf("wrote %s (trace)\n", trace_path->c_str());
    } else {
      return Fail("cannot write trace file " + *trace_path);
    }
  }
  return rc;
}
