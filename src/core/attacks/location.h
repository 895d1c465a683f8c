// Location inference attack (paper sec. VI, evaluated in sec. VIII-D).
//
// Given a partial reconstruction of the real background and a dictionary of
// known backgrounds (with known locations), rank the dictionary by
// similarity to the reconstruction. Matching is hue-based at the pixel
// level (robust to ambient-light changes between the adversary's prior
// knowledge and the call) and searches over small rotations and shifts of
// the reconstruction (webcam re-adjustment between calls). Every shift of
// a rotation is scored in one pass of kernels::MatchHsvLattice over the
// candidate's padded key plane (DESIGN.md section 15).
#pragma once

#include <span>
#include <vector>

#include "core/reconstruction.h"
#include "imaging/color.h"
#include "imaging/image.h"

namespace bb::core {

struct LocationMatchOptions {
  // Shift search: +/- max_shift in steps of shift_step, both axes.
  int max_shift = 6;
  int shift_step = 3;
  // Rotation search, degrees.
  std::vector<double> rotations{-4.0, -2.0, 0.0, 2.0, 4.0};
  // Hue match tolerance for saturated pixels, degrees.
  float hue_tolerance = 18.0f;
  // Below these, a pixel counts as near-gray and is matched on value
  // (brightness ordering survives lighting changes poorly, so the
  // tolerance is generous).
  float min_saturation = 0.15f;
  float value_tolerance = 0.22f;
  // Sampling stride over recovered pixels.
  int pixel_stride = 2;
  // Reconstructions covering less than this fraction score 0 (nothing to
  // match on).
  double min_coverage = 0.005;
};

// Similarity in [0, 1] between the reconstruction and one candidate
// background: the best, over the transform search space, fraction of
// sampled recovered pixels that match the candidate.
double LocationMatchScore(const imaging::Image& reconstruction,
                          const imaging::Bitmap& coverage,
                          const imaging::Image& candidate,
                          const LocationMatchOptions& opts = {});

struct RankedCandidate {
  int index = -1;
  double score = 0.0;
};

// Ranks every dictionary image by similarity, best first.
std::vector<RankedCandidate> RankLocations(
    const imaging::Image& reconstruction, const imaging::Bitmap& coverage,
    std::span<const imaging::Image> dictionary,
    const LocationMatchOptions& opts = {});

// 1-based rank of `true_index` in a ranking (dictionary size + 1 when
// absent). Top-k success means RankOf(...) <= k.
int RankOf(const std::vector<RankedCandidate>& ranking, int true_index);

// Probability that a uniformly random set of k distinct dictionary picks
// contains the true background (the paper's random baseline): k / N.
double RandomBaselineTopK(int k, int dictionary_size);

// Cross-call matching (paper sec. VI: "we also extend our matching to
// location across different calls, without knowledge of the full real
// background"): decides whether two partial reconstructions come from the
// same room by hue-matching only where BOTH are recovered, over the same
// rotation/shift search.
struct CrossCallMatch {
  double score = 0.0;    // best matched fraction over mutual coverage
  double overlap = 0.0;  // fraction of the frame with mutual coverage
};
CrossCallMatch MatchReconstructions(const imaging::Image& recon_a,
                                    const imaging::Bitmap& coverage_a,
                                    const imaging::Image& recon_b,
                                    const imaging::Bitmap& coverage_b,
                                    const LocationMatchOptions& opts = {});

}  // namespace bb::core
