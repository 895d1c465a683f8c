// Pixel-level value types and per-element math shared by the kernel layer
// and the rest of imaging/.
//
// This header is the bottom of the imaging stack: src/imaging/kernels/ may
// include nothing above it, and imaging/image.h / imaging/color.h re-export
// these names (same bb::imaging namespace) so existing call sites are
// unaffected. Everything here is a pure per-element function: no loops, no
// accumulation, no allocation — the properties that keep the kernels exact.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace bb::imaging {

// A 24-bit RGB pixel (Truecolor per paper sec. III).
struct Rgb8 {
  std::uint8_t r = 0;
  std::uint8_t g = 0;
  std::uint8_t b = 0;

  constexpr bool operator==(const Rgb8&) const = default;
};

// Common mask values. Masks in the paper are bitmaps whose pixels are either
// foreground (255,255,255) or background (0,0,0); we store one byte per
// pixel with 1 = set, 0 = clear.
inline constexpr std::uint8_t kMaskSet = 1;
inline constexpr std::uint8_t kMaskClear = 0;

// Hue in degrees [0, 360), saturation and value in [0, 1].
struct Hsv {
  float h = 0.0f;
  float s = 0.0f;
  float v = 0.0f;
};

// Rounds and clamps a float channel into [0, 255].
inline std::uint8_t ClampChannelU8(float v) {
  if (v <= 0.0f) return 0;
  if (v >= 255.0f) return 255;
  return static_cast<std::uint8_t>(v + 0.5f);
}

inline Hsv RgbToHsv(Rgb8 c) {
  const float r = c.r / 255.0f;
  const float g = c.g / 255.0f;
  const float b = c.b / 255.0f;
  const float mx = std::max(std::max(r, g), b);
  const float mn = std::min(std::min(r, g), b);
  const float d = mx - mn;

  Hsv out;
  out.v = mx;
  out.s = (mx <= 0.0f) ? 0.0f : d / mx;
  if (d <= 0.0f) {
    out.h = 0.0f;
  } else if (mx == r) {
    out.h = 60.0f * std::fmod((g - b) / d, 6.0f);
  } else if (mx == g) {
    out.h = 60.0f * ((b - r) / d + 2.0f);
  } else {
    out.h = 60.0f * ((r - g) / d + 4.0f);
  }
  if (out.h < 0.0f) out.h += 360.0f;
  return out;
}

// Shortest angular distance between two hues, in [0, 180].
inline float HueDistance(float h1, float h2) {
  float d = std::fabs(std::fmod(h1, 360.0f) - std::fmod(h2, 360.0f));
  if (d > 180.0f) d = 360.0f - d;
  return d;
}

// True when the two colors match within the given per-channel tolerance.
inline bool NearlyEqual(Rgb8 a, Rgb8 b, int channel_tolerance) {
  return std::abs(a.r - b.r) <= channel_tolerance &&
         std::abs(a.g - b.g) <= channel_tolerance &&
         std::abs(a.b - b.b) <= channel_tolerance;
}

// Linear interpolation between two colors; t in [0, 1] (clamped).
inline Rgb8 Lerp(Rgb8 a, Rgb8 b, float t) {
  if (t < 0.0f) t = 0.0f;
  if (t > 1.0f) t = 1.0f;
  return {ClampChannelU8(a.r + (b.r - a.r) * t),
          ClampChannelU8(a.g + (b.g - a.g) * t),
          ClampChannelU8(a.b + (b.b - a.b) * t)};
}

// A color "bucket" used by the statistical color-frequency refinement of the
// video-caller mask (paper sec. V-D) and by the hue histograms in the
// attacks. Quantizes RGB to a small key so frequencies can be counted in a
// flat array.
//
// Layout: 4 bits per channel -> 4096 buckets.
inline constexpr int kColorBucketCount = 4096;
inline int ColorBucket(Rgb8 c) {
  return ((c.r >> 4) << 8) | ((c.g >> 4) << 4) | (c.b >> 4);
}

}  // namespace bb::imaging
