#include "detect/template_match.h"

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/trace.h"
#include "imaging/draw.h"
#include "imaging/transform.h"
#include "synth/rng.h"
#include "synth/scene.h"

namespace bb::detect {
namespace {

using imaging::Bitmap;
using imaging::Image;
using imaging::Rect;

TEST(IntegralMaskTest, SumsMatchBruteForce) {
  Bitmap m(7, 5);
  m(0, 0) = m(3, 2) = m(6, 4) = m(2, 2) = imaging::kMaskSet;
  const IntegralMask integral(m);
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 7; ++x) {
      for (int h = 1; y + h <= 5; h += 2) {
        for (int w = 1; x + w <= 7; w += 2) {
          long long expected = 0;
          for (int yy = y; yy < y + h; ++yy) {
            for (int xx = x; xx < x + w; ++xx) expected += m(xx, yy) ? 1 : 0;
          }
          EXPECT_EQ(integral.Sum({x, y, w, h}), expected)
              << x << "," << y << " " << w << "x" << h;
        }
      }
    }
  }
}

TEST(IntegralMaskTest, ClipsOutOfBoundsRects) {
  Bitmap m(4, 4, imaging::kMaskSet);
  const IntegralMask integral(m);
  EXPECT_EQ(integral.Sum({-2, -2, 10, 10}), 16);
  EXPECT_EQ(integral.Sum({5, 5, 2, 2}), 0);
}

// A scene with a distinctive red-blue object on a gray wall.
struct SceneFixture {
  Image scene{96, 72, {120, 118, 115}};
  Image templ{20, 16};
  Rect object_at{50, 30, 20, 16};

  SceneFixture() {
    imaging::FillRect(templ, {0, 0, 20, 16}, {200, 30, 30});
    imaging::FillRect(templ, {4, 4, 12, 8}, {30, 30, 200});
    imaging::Paste(scene, templ, object_at.x, object_at.y);
  }
};

TemplateMatchOptions LooseOptions() {
  TemplateMatchOptions opts;
  opts.min_window_fraction = 0.0;  // tiny test frames
  opts.min_recovered_fraction = 0.5;
  return opts;
}

TEST(TemplateMatchTest, FindsObjectWithFullCoverage) {
  const SceneFixture f;
  const Bitmap coverage(96, 72, imaging::kMaskSet);
  const auto r = MatchTemplate(f.scene, coverage, f.templ, LooseOptions());
  EXPECT_TRUE(r.found);
  EXPECT_GT(r.score, 0.85);
  EXPECT_LT(std::abs(r.window.x - f.object_at.x), 4);
  EXPECT_LT(std::abs(r.window.y - f.object_at.y), 4);
}

TEST(TemplateMatchTest, RejectsAbsentObject) {
  const SceneFixture f;
  const Bitmap coverage(96, 72, imaging::kMaskSet);
  Image other(20, 16, {20, 200, 20});  // green object not in the scene
  const auto r = MatchTemplate(f.scene, coverage, other, LooseOptions());
  EXPECT_FALSE(r.found);
}

TEST(TemplateMatchTest, FindsObjectUnderPartialCoverage) {
  const SceneFixture f;
  // Only ~60% of pixels recovered, in stripes.
  Bitmap coverage(96, 72);
  for (int y = 0; y < 72; ++y) {
    for (int x = 0; x < 96; ++x) {
      if ((x / 3) % 2 == 0 || y % 2 == 0) coverage(x, y) = imaging::kMaskSet;
    }
  }
  const auto r = MatchTemplate(f.scene, coverage, f.templ, LooseOptions());
  EXPECT_TRUE(r.found);
}

TEST(TemplateMatchTest, RespectsRecoveredFractionConstraint) {
  const SceneFixture f;
  // Nothing recovered around the object.
  Bitmap coverage(96, 72);
  imaging::FillRect(coverage, {0, 0, 30, 72});
  TemplateMatchOptions opts = LooseOptions();
  opts.min_recovered_fraction = 0.5;
  const auto r = MatchTemplate(f.scene, coverage, f.templ, opts);
  // The object region is unrecovered, so no window there qualifies.
  EXPECT_TRUE(!r.found ||
              r.window.Intersect(f.object_at.Inflated(-4)).Empty());
}

TEST(TemplateMatchTest, RespectsMinWindowFraction) {
  const SceneFixture f;
  const Bitmap coverage(96, 72, imaging::kMaskSet);
  TemplateMatchOptions opts = LooseOptions();
  opts.min_window_fraction = 0.5;  // template is ~4.6% of the frame: too small
  const auto r = MatchTemplate(f.scene, coverage, f.templ, opts);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.score, 0.0);
}

TEST(TemplateMatchTest, FindsScaledObject) {
  SceneFixture f;
  Image big_scene(96, 72, {120, 118, 115});
  const Image scaled = imaging::ResizeNearest(f.templ, 25, 20);
  imaging::Paste(big_scene, scaled, 40, 30);
  const Bitmap coverage(96, 72, imaging::kMaskSet);
  const auto r = MatchTemplate(big_scene, coverage, f.templ, LooseOptions());
  EXPECT_TRUE(r.found);
  EXPECT_GT(r.scale, 1.0);
}

TEST(TemplateMatchTest, FindsRotatedObject) {
  SceneFixture f;
  Image scene(96, 72, {120, 118, 115});
  const Image rotated = imaging::Rotate(f.templ, 8.0, {120, 118, 115});
  imaging::Paste(scene, rotated, 40, 30);
  const Bitmap coverage(96, 72, imaging::kMaskSet);
  const auto r = MatchTemplate(scene, coverage, f.templ, LooseOptions());
  EXPECT_TRUE(r.found);
}

TEST(TemplateMatchTest, FindsRotatedDarkObject) {
  // Regression: rotation filler used to be detected by comparing against
  // the fill color {0,0,0}, which also discarded legitimate pure-black
  // template pixels (TV bezels, monitor frames). A mostly-black template
  // must still match under rotation.
  Image dark_templ(24, 18, {0, 0, 0});        // black bezel...
  imaging::FillRect(dark_templ, {8, 6, 8, 6}, {60, 60, 200});  // ...blue core
  Image scene(96, 72, {120, 118, 115});
  const Image rotated = imaging::Rotate(dark_templ, 8.0, {120, 118, 115});
  imaging::Paste(scene, rotated, 40, 28);
  const Bitmap coverage(96, 72, imaging::kMaskSet);
  TemplateMatchOptions opts = LooseOptions();
  opts.rotations = {8.0};  // force the rotated code path
  const auto r = MatchTemplate(scene, coverage, dark_templ, opts);
  EXPECT_TRUE(r.found);
  EXPECT_GT(r.score, 0.7);
}

TEST(TemplateMatchTest, ScaledDimensionsRoundSymmetrically) {
  // Regression: 31-px templates at scale 0.99 used to truncate to 30 px.
  // With rounding, near-unit scales keep the template dimensions, so the
  // best window for a perfectly-placed object reports the template's size.
  Image templ(31, 31);
  for (int y = 0; y < 31; ++y) {
    for (int x = 0; x < 31; ++x) {
      templ(x, y) = (x + y) % 2 ? imaging::Rgb8{200, 30, 30}
                                : imaging::Rgb8{30, 30, 200};
    }
  }
  Image scene(96, 72, {120, 118, 115});
  imaging::Paste(scene, templ, 30, 20);
  const Bitmap coverage(96, 72, imaging::kMaskSet);
  TemplateMatchOptions opts = LooseOptions();
  opts.scales = {0.99};
  opts.rotations = {0.0};
  opts.window_stride = 1;
  const auto r = MatchTemplate(scene, coverage, templ, opts);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.window.w, 31);
  EXPECT_EQ(r.window.h, 31);
}

// The coarse-to-fine pruned search promises bit-identical results to the
// exhaustive sweep (the early-abandon bound is exact and ties resolve by
// scan order regardless of visit order). Every field of the result must
// agree - not approximately, exactly.
void ExpectSameResult(const TemplateMatchResult& a,
                      const TemplateMatchResult& b, const char* what) {
  EXPECT_EQ(a.found, b.found) << what;
  EXPECT_EQ(a.score, b.score) << what;  // bitwise: same integer fraction
  EXPECT_EQ(a.window.x, b.window.x) << what;
  EXPECT_EQ(a.window.y, b.window.y) << what;
  EXPECT_EQ(a.window.w, b.window.w) << what;
  EXPECT_EQ(a.window.h, b.window.h) << what;
  EXPECT_EQ(a.rotation, b.rotation) << what;
  EXPECT_EQ(a.scale, b.scale) << what;
}

TEST(TemplateMatchTest, PrunedEqualsExhaustiveOnGoldenScene) {
  const SceneFixture f;
  const Bitmap coverage(96, 72, imaging::kMaskSet);
  TemplateMatchOptions pruned = LooseOptions();
  TemplateMatchOptions exhaustive = LooseOptions();
  pruned.prune = true;
  exhaustive.prune = false;
  ExpectSameResult(MatchTemplate(f.scene, coverage, f.templ, pruned),
                   MatchTemplate(f.scene, coverage, f.templ, exhaustive),
                   "golden scene");
}

TEST(TemplateMatchTest, PrunedEqualsExhaustiveOnRandomizedCorpus) {
  synth::Rng rng(4242);
  for (int trial = 0; trial < 6; ++trial) {
    // Random scene, random template crop (sometimes pasted back in,
    // sometimes absent), random partial coverage.
    synth::RandomSceneOptions sopts;
    sopts.width = 80;
    sopts.height = 60;
    synth::Rng scene_rng(rng.Next());
    Image scene =
        synth::RenderScene(synth::RandomScene(scene_rng, sopts)).background;
    const int tw = rng.UniformInt(12, 24), th = rng.UniformInt(10, 20);
    const int sx = rng.UniformInt(0, scene.width() - tw);
    const int sy = rng.UniformInt(0, scene.height() - th);
    const Image templ = imaging::Crop(scene, {sx, sy, tw, th});
    Bitmap coverage(scene.width(), scene.height());
    for (int y = 0; y < scene.height(); ++y) {
      for (int x = 0; x < scene.width(); ++x) {
        if (rng.Chance(0.8)) coverage(x, y) = imaging::kMaskSet;
      }
    }
    TemplateMatchOptions pruned = LooseOptions();
    pruned.rotations = {-4.0, 0.0, 4.0};
    pruned.scales = {0.9, 1.0, 1.1};
    TemplateMatchOptions exhaustive = pruned;
    pruned.prune = true;
    exhaustive.prune = false;
    ExpectSameResult(MatchTemplate(scene, coverage, templ, pruned),
                     MatchTemplate(scene, coverage, templ, exhaustive),
                     "randomized corpus");
  }
}

TEST(TemplateMatchTest, ResultIsThreadCountInvariant) {
  const SceneFixture f;
  const Bitmap coverage(96, 72, imaging::kMaskSet);
  const TemplateMatchOptions opts = LooseOptions();
  const auto baseline = MatchTemplate(f.scene, coverage, f.templ, opts);
  for (int threads : {1, 3, 8}) {
    common::SetThreadCount(threads);
    ExpectSameResult(MatchTemplate(f.scene, coverage, f.templ, opts),
                     baseline, "threads");
  }
  common::SetThreadCount(0);
}

TEST(TemplateMatchTest, TemplateCacheCountsReusedDerivations) {
  const SceneFixture f;
  const Bitmap coverage(96, 72, imaging::kMaskSet);
  TemplateMatchOptions opts = LooseOptions();
  opts.scales = {0.9, 1.0, 1.1};
  opts.rotations = {-5.0, 0.0, 5.0};
  trace::Reset();
  trace::Enable();
  MatchTemplate(f.scene, coverage, f.templ, opts);
  const trace::Snapshot snap = trace::Capture();
  trace::Disable();
  trace::Reset();
  std::uint64_t hits = 0;
  bool seen = false;
  for (const auto& c : snap.counters) {
    if (c.name == "kernel.template_cache_hits") {
      hits = c.value;
      seen = true;
    }
  }
  ASSERT_TRUE(seen);
  // Each scaled template is derived once and reused for the remaining
  // rotations of that scale: 3 scales x (3 rotations - 1) = 6 hits.
  EXPECT_EQ(hits, 6u);
}

TEST(TemplateMatchTest, EmptyInputsAreSafe) {
  const Bitmap coverage(10, 10, imaging::kMaskSet);
  const Image recon(10, 10);
  EXPECT_FALSE(MatchTemplate(recon, coverage, Image{}, LooseOptions()).found);
  EXPECT_FALSE(
      MatchTemplate(Image{}, Bitmap{}, Image(4, 4), LooseOptions()).found);
}

TEST(TemplateMatchTest, OversizedTemplateSkipsScale) {
  const SceneFixture f;
  const Bitmap coverage(96, 72, imaging::kMaskSet);
  const Image huge(200, 200, {1, 1, 1});
  EXPECT_FALSE(MatchTemplate(f.scene, coverage, huge, LooseOptions()).found);
}

}  // namespace
}  // namespace bb::detect
