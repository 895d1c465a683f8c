#include "core/attacks/location.h"

#include <gtest/gtest.h>

#include "imaging/draw.h"
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

// The pruned shift sweep (best-first visit order + exact early-abandon)
// promises bit-identical scores to the exhaustive sweep. DOUBLE_EQ, not
// NEAR: the winning integer fraction must be the same one.
TEST(LocationMatchTest, PrunedEqualsExhaustive) {
  LocationMatchOptions pruned, exhaustive;
  pruned.prune = true;
  exhaustive.prune = false;
  for (std::uint64_t seed : {5ull, 9ull, 21ull, 77ull}) {
    const Image scene = Scene(seed);
    const auto [recon, coverage] = PartialRecon(scene, 0.4);
    const Image candidate = imaging::Shift(scene, 3, -2);
    EXPECT_DOUBLE_EQ(
        LocationMatchScore(recon, coverage, candidate, pruned),
        LocationMatchScore(recon, coverage, candidate, exhaustive))
        << "seed=" << seed;
  }
}

TEST(RankLocationsTest, PrunedEqualsExhaustive) {
  const Image scene = Scene(31);
  std::vector<Image> dict;
  dict.push_back(scene);
  for (std::uint64_t s = 200; s < 208; ++s) dict.push_back(Scene(s));
  const auto [recon, coverage] = PartialRecon(scene, 0.35);
  LocationMatchOptions pruned, exhaustive;
  pruned.prune = true;
  exhaustive.prune = false;
  const auto rp = RankLocations(recon, coverage, dict, pruned);
  const auto re = RankLocations(recon, coverage, dict, exhaustive);
  ASSERT_EQ(rp.size(), re.size());
  for (std::size_t i = 0; i < rp.size(); ++i) {
    EXPECT_EQ(rp[i].index, re[i].index) << i;
    EXPECT_DOUBLE_EQ(rp[i].score, re[i].score) << i;
  }
}

TEST(CrossCallMatchTest, PrunedEqualsExhaustive) {
  const Image scene = Scene(55);
  const auto [ra, ca] = PartialRecon(scene, 0.4);
  Bitmap cb(96, 72);
  for (int y = 0; y < 72; ++y) {
    for (int x = 0; x < 96; ++x) {
      if ((x / 5 + (y / 5)) % 3 != 0) cb(x, y) = imaging::kMaskSet;
    }
  }
  LocationMatchOptions pruned, exhaustive;
  pruned.prune = true;
  exhaustive.prune = false;
  const auto mp = MatchReconstructions(ra, ca, scene, cb, pruned);
  const auto me = MatchReconstructions(ra, ca, scene, cb, exhaustive);
  EXPECT_DOUBLE_EQ(mp.score, me.score);
  EXPECT_DOUBLE_EQ(mp.overlap, me.overlap);
}

TEST(RandomBaselineTest, MatchesKOverN) {
  EXPECT_DOUBLE_EQ(RandomBaselineTopK(1, 200), 0.005);
  EXPECT_DOUBLE_EQ(RandomBaselineTopK(25, 200), 0.125);
  EXPECT_DOUBLE_EQ(RandomBaselineTopK(300, 200), 1.0);
  EXPECT_DOUBLE_EQ(RandomBaselineTopK(1, 0), 0.0);
}

}  // namespace
}  // namespace bb::core
