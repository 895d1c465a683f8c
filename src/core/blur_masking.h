// Blending blur masking (paper sec. V-C).
//
// The blending ring BB sits between the virtual background and the
// foreground; its pixels are mixtures of both and match neither. The paper
// marks as "blending blur" every pixel within radius phi of a VBM pixel
// (phi = 20 at webcam resolution; an adversary calibrates phi offline by
// applying the target software to static probe images).
#pragma once

#include "imaging/image.h"

namespace bb::core {

// Default phi for the simulation's 144p frames (the paper's phi = 20 at
// ~720p scales to ~4 here; bench_phi sweeps this).
inline constexpr double kDefaultPhi = 4.0;

// The phi range jobs and `backbuster attack` accept: finite, in
// [0, kMaxPhi]. NaN, negative and infinite radii are refused.
inline constexpr double kMaxPhi = 1000.0;
inline bool PhiInRange(double phi) { return phi >= 0.0 && phi <= kMaxPhi; }

// BBM: every pixel within Euclidean distance `phi` of a set VBM pixel
// (includes the VBM pixels themselves; the framework removes the union of
// all masks, so the overlap is harmless).
imaging::Bitmap ComputeBbm(const imaging::Bitmap& vbm, double phi);

// Offline phi calibration (paper sec. VIII-C, "Impact of Different
// Framework Parameters"): the adversary applies the target software to a
// static probe frame (scene + motionless figure) and measures the maximum
// distance from the VB-matching region at which pixels differ from both the
// raw VB and the raw (pre-VB) frame - i.e. the observed blur depth.
double CalibratePhi(const imaging::Image& probe_output,
                    const imaging::Image& virtual_image,
                    const imaging::Image& raw_frame, int tolerance);

}  // namespace bb::core
