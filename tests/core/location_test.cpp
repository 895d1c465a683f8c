#include "core/attacks/location.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "../imaging/kernels_reference.h"
#include "common/parallel.h"
#include "imaging/draw.h"
#include "imaging/kernels/kernels.h"
#include "imaging/transform.h"
#include "synth/scene.h"
#include "synth/rng.h"

namespace bb::core {
namespace {

using imaging::Bitmap;
using imaging::Image;

Image Scene(std::uint64_t seed) {
  synth::Rng rng(seed);
  synth::RandomSceneOptions opts;
  opts.width = 96;
  opts.height = 72;
  return synth::RenderScene(synth::RandomScene(rng, opts)).background;
}

// Simulates a partial reconstruction: the scene with only `fraction` of
// pixels covered, in coherent patches.
std::pair<Image, Bitmap> PartialRecon(const Image& scene, double fraction) {
  Bitmap coverage(scene.width(), scene.height());
  const int cell = 8;
  std::uint64_t s = 12345;
  for (int cy = 0; cy < scene.height(); cy += cell) {
    for (int cx = 0; cx < scene.width(); cx += cell) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      if (static_cast<double>(s >> 40) / static_cast<double>(1ull << 24) <
          fraction) {
        imaging::FillRect(coverage, {cx, cy, cell, cell});
      }
    }
  }
  return {scene, coverage};
}

TEST(LocationMatchTest, IdenticalBackgroundScoresHigh) {
  const Image scene = Scene(5);
  const auto [recon, coverage] = PartialRecon(scene, 0.4);
  EXPECT_GT(LocationMatchScore(recon, coverage, scene), 0.9);
}

TEST(LocationMatchTest, UnrelatedBackgroundScoresLower) {
  const Image scene = Scene(5);
  const Image other = Scene(77);
  const auto [recon, coverage] = PartialRecon(scene, 0.4);
  EXPECT_GT(LocationMatchScore(recon, coverage, scene),
            LocationMatchScore(recon, coverage, other));
}

TEST(LocationMatchTest, ToleratesSmallShift) {
  const Image scene = Scene(9);
  const auto [recon, coverage] = PartialRecon(scene, 0.4);
  // The camera moved 4 px between the dictionary photo and the call.
  const Image shifted = imaging::Shift(scene, 4, 2);
  EXPECT_GT(LocationMatchScore(recon, coverage, shifted), 0.75);
}

TEST(LocationMatchTest, ToleratesSmallRotation) {
  const Image scene = Scene(9);
  const auto [recon, coverage] = PartialRecon(scene, 0.4);
  const Image rotated = imaging::Rotate(scene, 3.0);
  EXPECT_GT(LocationMatchScore(recon, coverage, rotated), 0.7);
}

TEST(LocationMatchTest, ToleratesBrightnessChange) {
  // The paper's day/night robustness: matching is hue-based.
  const Image scene = Scene(13);
  Image dimmed = scene;
  for (auto& p : dimmed.pixels()) p = imaging::Scaled(p, 0.75f);
  const auto [recon, coverage] = PartialRecon(scene, 0.5);
  const Image unrelated = Scene(99);
  EXPECT_GT(LocationMatchScore(recon, coverage, dimmed),
            LocationMatchScore(recon, coverage, unrelated));
}

TEST(LocationMatchTest, TinyCoverageScoresZero) {
  const Image scene = Scene(5);
  Bitmap coverage(96, 72);
  coverage(10, 10) = imaging::kMaskSet;  // far below min_coverage
  EXPECT_DOUBLE_EQ(LocationMatchScore(scene, coverage, scene), 0.0);
}

TEST(RankLocationsTest, TrueBackgroundRanksFirst) {
  const Image scene = Scene(21);
  std::vector<Image> dict;
  dict.push_back(scene);
  for (std::uint64_t s = 100; s < 112; ++s) dict.push_back(Scene(s));
  const auto [recon, coverage] = PartialRecon(scene, 0.35);
  const auto ranking = RankLocations(recon, coverage, dict);
  ASSERT_EQ(ranking.size(), dict.size());
  EXPECT_EQ(RankOf(ranking, 0), 1);
  // Ranking is sorted descending.
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_GE(ranking[i - 1].score, ranking[i].score);
  }
}

TEST(RankLocationsTest, EmptyCoverageRanksArbitraryButComplete) {
  const Image scene = Scene(3);
  std::vector<Image> dict{scene, Scene(4)};
  const Bitmap coverage(96, 72);
  const auto ranking = RankLocations(scene, coverage, dict);
  EXPECT_EQ(ranking.size(), 2u);
  EXPECT_DOUBLE_EQ(ranking[0].score, 0.0);
}

TEST(RankOfTest, MissingIndexRanksBeyondEnd) {
  std::vector<RankedCandidate> ranking{{2, 0.9}, {0, 0.5}};
  EXPECT_EQ(RankOf(ranking, 2), 1);
  EXPECT_EQ(RankOf(ranking, 0), 2);
  EXPECT_EQ(RankOf(ranking, 7), 3);
}

TEST(CrossCallMatchTest, SameRoomReconstructionsMatch) {
  const Image scene = Scene(55);
  const auto [ra, ca] = PartialRecon(scene, 0.4);
  // Second "call": different coverage pattern over the same room.
  Bitmap cb(96, 72);
  for (int y = 0; y < 72; ++y) {
    for (int x = 0; x < 96; ++x) {
      if ((x / 7 + 2 * (y / 7)) % 3 != 0) cb(x, y) = imaging::kMaskSet;
    }
  }
  const auto same = MatchReconstructions(ra, ca, scene, cb);
  EXPECT_GT(same.overlap, 0.05);
  EXPECT_GT(same.score, 0.8);

  const Image other = Scene(56);
  const auto diff = MatchReconstructions(ra, ca, other, cb);
  EXPECT_GT(same.score, diff.score);
}

TEST(CrossCallMatchTest, DisjointCoverageScoresZero) {
  const Image scene = Scene(57);
  Bitmap left(96, 72), right(96, 72);
  imaging::FillRect(left, {0, 0, 40, 72});
  imaging::FillRect(right, {56, 0, 40, 72});
  const auto m = MatchReconstructions(scene, left, scene, right);
  EXPECT_DOUBLE_EQ(m.score, 0.0);
}

TEST(CrossCallMatchTest, ToleratesCameraShiftBetweenCalls) {
  const Image scene = Scene(58);
  const auto [ra, ca] = PartialRecon(scene, 0.5);
  const Image shifted = imaging::Shift(scene, 3, 2);
  const Bitmap full(96, 72, imaging::kMaskSet);
  const auto m = MatchReconstructions(ra, ca, shifted, full);
  EXPECT_GT(m.score, 0.8);
}

TEST(RankLocationsTest, RankingIsThreadCountInvariant) {
  // Candidates are scored in parallel; each owns its key plane and output
  // slot, so nothing may depend on the thread count.
  const Image scene = Scene(41);
  std::vector<Image> dict;
  for (std::uint64_t s = 300; s < 311; ++s) dict.push_back(Scene(s));
  dict.push_back(imaging::Shift(scene, 3, -3));
  dict.push_back(scene);
  const auto [recon, coverage] = PartialRecon(scene, 0.35);
  std::vector<RankedCandidate> want;
  for (int threads = 1; threads <= 8; ++threads) {
    common::SetThreadCount(threads);
    const auto ranking = RankLocations(recon, coverage, dict);
    if (threads == 1) {
      want = ranking;
      continue;
    }
    ASSERT_EQ(ranking.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(ranking[i].index, want[i].index)
          << "threads " << threads << " rank " << i;
      EXPECT_EQ(ranking[i].score, want[i].score)
          << "threads " << threads << " rank " << i;
    }
  }
  common::SetThreadCount(0);
}

// ---- Exactness against the Hsv-based sweep ---------------------------------
//
// The reference is the search as it was before the shift lattice: per
// rotation, sample the covered pixels; for every shift compare each sample
// with the candidate pixel under it through RgbToHsv and the Hsv
// predicate, skipping samples that leave the candidate or land where the
// candidate is not covered; keep the best exact fraction among shifts
// that compared at least `min_compared` samples. Scores must be equal as
// doubles, not merely close.

double ReferenceSweep(const Image& recon, const Bitmap& coverage,
                      const Image& candidate, const Bitmap& candidate_cov,
                      const LocationMatchOptions& o,
                      std::int64_t min_compared) {
  const imaging::kernels::HsvMatchParams params{
      o.min_saturation, o.hue_tolerance, o.value_tolerance};
  const int stride = std::max(1, o.pixel_stride);
  const int step = std::max(1, o.shift_step);
  std::int64_t best_m = 0, best_c = 0;
  for (double rot : o.rotations) {
    const Image r = rot == 0.0 ? recon : imaging::Rotate(recon, rot);
    const Bitmap c = rot == 0.0 ? coverage : imaging::Rotate(coverage, rot);
    std::vector<int> xs, ys;
    for (int y = 0; y < r.height(); y += stride) {
      for (int x = 0; x < r.width(); x += stride) {
        if (!c(x, y)) continue;
        xs.push_back(x);
        ys.push_back(y);
      }
    }
    for (int dy = -o.max_shift; dy <= o.max_shift; dy += step) {
      for (int dx = -o.max_shift; dx <= o.max_shift; dx += step) {
        std::int64_t m = 0, n = 0;
        for (std::size_t k = 0; k < xs.size(); ++k) {
          const int x = xs[k] + dx, y = ys[k] + dy;
          if (x < 0 || y < 0 || x >= candidate.width() ||
              y >= candidate.height()) {
            continue;
          }
          if (!candidate_cov.empty() && !candidate_cov(x, y)) continue;
          ++n;
          m += imaging::kernels::reference::HsvPixelsMatch(
              imaging::RgbToHsv(r(xs[k], ys[k])),
              imaging::RgbToHsv(candidate(x, y)), params);
        }
        if (n < min_compared) continue;
        if (imaging::kernels::FractionGreater(m, n, best_m, best_c)) {
          best_m = m;
          best_c = n;
        }
      }
    }
  }
  return best_c > 0 ? static_cast<double>(best_m) /
                          static_cast<double>(best_c)
                    : 0.0;
}

double ReferenceScore(const Image& recon, const Bitmap& coverage,
                      const Image& candidate, const LocationMatchOptions& o) {
  if (imaging::SetFraction(coverage) < o.min_coverage) return 0.0;
  return ReferenceSweep(recon, coverage, candidate, Bitmap(), o, 1);
}

CrossCallMatch ReferenceCrossCall(const Image& ra, const Bitmap& ca,
                                  const Image& rb, const Bitmap& cb,
                                  const LocationMatchOptions& o) {
  CrossCallMatch out;
  out.overlap = imaging::SetFraction(imaging::And(ca, cb));
  if (out.overlap < o.min_coverage) return out;
  out.score = ReferenceSweep(ra, ca, rb, cb, o, 9);
  return out;
}

Image SceneOf(std::uint64_t seed, int width, int height) {
  synth::Rng rng(seed);
  synth::RandomSceneOptions opts;
  opts.width = width;
  opts.height = height;
  return synth::RenderScene(synth::RandomScene(rng, opts)).background;
}

// The search spaces under test: the defaults, no shift, a one-pixel
// lattice, a dense one, a sparse one, and no rotation at all.
std::vector<LocationMatchOptions> Lattices() {
  std::vector<LocationMatchOptions> out;
  out.push_back({});
  for (const auto& [max_shift, step] :
       std::vector<std::pair<int, int>>{{0, 1}, {1, 1}, {7, 2}, {7, 5},
                                        {1, 2}}) {
    LocationMatchOptions o;
    o.max_shift = max_shift;
    o.shift_step = step;
    out.push_back(o);
  }
  LocationMatchOptions none;
  none.rotations.clear();
  out.push_back(none);
  LocationMatchOptions one_rotation;
  one_rotation.rotations = {3.0};
  one_rotation.max_shift = 7;
  one_rotation.shift_step = 1;
  out.push_back(one_rotation);
  return out;
}

// Coverage cases over a reconstruction: empty, full, below min_coverage,
// and a partial reconstruction.
std::vector<Bitmap> Coverages(const Image& scene) {
  const int w = scene.width(), h = scene.height();
  Bitmap tiny(w, h);
  tiny(w / 2, h / 2) = imaging::kMaskSet;
  return {Bitmap(w, h), Bitmap(w, h, imaging::kMaskSet), tiny,
          PartialRecon(scene, 0.4).second};
}

TEST(LocationExactnessTest, ScoreEqualsReferenceSweep) {
  // Odd sizes, and candidates smaller and larger than the reconstruction.
  const Image recon = SceneOf(61, 45, 31);
  const Image shifted = imaging::Shift(recon, 2, -1);
  const std::vector<Image> candidates{recon, shifted, SceneOf(62, 45, 31),
                                      SceneOf(63, 37, 27),
                                      SceneOf(64, 52, 40)};
  for (const LocationMatchOptions& o : Lattices()) {
    for (const Bitmap& cov : Coverages(recon)) {
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        EXPECT_EQ(LocationMatchScore(recon, cov, candidates[i], o),
                  ReferenceScore(recon, cov, candidates[i], o))
            << "candidate " << i << " max_shift " << o.max_shift << " step "
            << o.shift_step << " rotations " << o.rotations.size()
            << " covered " << imaging::CountSet(cov);
      }
    }
  }
}

TEST(LocationExactnessTest, RankingEqualsReferenceSweep) {
  const Image scene = SceneOf(71, 63, 47);
  std::vector<Image> dict{imaging::Shift(scene, -3, 2), SceneOf(72, 63, 47),
                          scene, SceneOf(73, 51, 39), SceneOf(74, 70, 52),
                          imaging::Rotate(scene, 2.0)};
  for (const LocationMatchOptions& o : Lattices()) {
    for (const Bitmap& cov : Coverages(scene)) {
      std::vector<RankedCandidate> want;
      for (std::size_t i = 0; i < dict.size(); ++i) {
        want.push_back({static_cast<int>(i),
                        ReferenceScore(scene, cov, dict[i], o)});
      }
      std::stable_sort(want.begin(), want.end(),
                       [](const RankedCandidate& a, const RankedCandidate& b) {
                         return a.score > b.score;
                       });
      const auto got = RankLocations(scene, cov, dict, o);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].index, want[i].index)
            << "rank " << i << " max_shift " << o.max_shift;
        EXPECT_EQ(got[i].score, want[i].score)
            << "rank " << i << " max_shift " << o.max_shift;
      }
    }
  }
}

TEST(LocationExactnessTest, CrossCallEqualsReferenceSweep) {
  const Image scene = SceneOf(81, 53, 41);
  const Image other = SceneOf(82, 53, 41);
  const Bitmap ca = PartialRecon(scene, 0.5).second;
  Bitmap stripes(53, 41);
  for (int y = 0; y < 41; ++y) {
    for (int x = 0; x < 53; ++x) {
      if ((x / 5 + y / 5) % 3 != 0) stripes(x, y) = imaging::kMaskSet;
    }
  }
  // A few scattered pixels: overlap above min_coverage, but most shifts
  // compare fewer than the 9 samples a cross-call shift needs.
  Bitmap sparse(53, 41);
  for (int y = 1; y < 41; y += 9) {
    for (int x = 2; x < 53; x += 11) sparse(x, y) = imaging::kMaskSet;
  }
  // Against a fully covered A: eight pixels an unshifted sample lands on
  // (even coordinates) and four it cannot, so the overlap passes
  // min_coverage while the unshifted match compares 8 samples, one short.
  Bitmap eight(53, 41);
  for (int k = 0; k < 8; ++k) eight(4 + 6 * k, 6 + 4 * (k % 3)) = 1;
  for (int k = 0; k < 4; ++k) eight(7 + 10 * k, 31) = 1;
  const Bitmap full(53, 41, imaging::kMaskSet);
  const std::vector<std::pair<Bitmap, Bitmap>> coverages{
      {ca, Bitmap(53, 41)}, {ca, full}, {ca, stripes}, {ca, sparse},
      {full, eight}};
  for (const LocationMatchOptions& o : Lattices()) {
    for (const auto& [cov_a, cov_b] : coverages) {
      for (const Image* b : {&scene, &other}) {
        const CrossCallMatch got =
            MatchReconstructions(scene, cov_a, *b, cov_b, o);
        const CrossCallMatch want =
            ReferenceCrossCall(scene, cov_a, *b, cov_b, o);
        EXPECT_EQ(got.score, want.score)
            << "max_shift " << o.max_shift << " step " << o.shift_step
            << " b covered " << imaging::CountSet(cov_b);
        EXPECT_EQ(got.overlap, want.overlap);
      }
    }
  }
}

TEST(RandomBaselineTest, MatchesKOverN) {
  EXPECT_DOUBLE_EQ(RandomBaselineTopK(1, 200), 0.005);
  EXPECT_DOUBLE_EQ(RandomBaselineTopK(25, 200), 0.125);
  EXPECT_DOUBLE_EQ(RandomBaselineTopK(300, 200), 1.0);
  EXPECT_DOUBLE_EQ(RandomBaselineTopK(1, 0), 0.0);
}

}  // namespace
}  // namespace bb::core
