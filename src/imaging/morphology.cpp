#include "imaging/morphology.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "imaging/kernels/kernels.h"

namespace bb::imaging {

namespace {

// The squared distance SquaredDistanceToSet reports where the mask has no
// set pixel at all.
constexpr float kInf = std::numeric_limits<float>::max() / 4.0f;

// 1-D squared distance transform (Felzenszwalb & Huttenlocher 2012).
void Dt1d(const float* f, float* d, int n, int* v, float* z) {
  int k = 0;
  v[0] = 0;
  z[0] = -kInf;
  z[1] = kInf;
  for (int q = 1; q < n; ++q) {
    float s = ((f[q] + static_cast<float>(q) * q) -
               (f[v[k]] + static_cast<float>(v[k]) * v[k])) /
              (2.0f * (q - v[k]));
    while (s <= z[k]) {
      --k;
      s = ((f[q] + static_cast<float>(q) * q) -
           (f[v[k]] + static_cast<float>(v[k]) * v[k])) /
          (2.0f * (q - v[k]));
    }
    ++k;
    v[k] = q;
    z[k] = s;
    z[k + 1] = kInf;
  }
  k = 0;
  for (int q = 0; q < n; ++q) {
    while (z[k + 1] < static_cast<float>(q)) ++k;
    const float dq = static_cast<float>(q - v[k]);
    d[q] = dq * dq + f[v[k]];
  }
}

// Column sweeps run in fixed chunks: GCC's -O2 vectorizer takes a loop only
// when it needs neither an epilogue nor a runtime alias check, and the rows
// a sweep reads never overlap the row it writes (ivdep).
constexpr std::size_t kSweepChunk = 16;

template <typename Body>
void ForEachColumn(std::size_t width, Body body) {
  std::size_t x = 0;
  for (; x + kSweepChunk <= width; x += kSweepChunk) {
#pragma GCC ivdep
    // bblint: allow(no-per-pixel-loop) -- one row of a column sweep; the state runs down the columns
    for (std::size_t k = x; k < x + kSweepChunk; ++k) body(k);
  }
  for (; x < width; ++x) body(x);
}

// Planes and tables that persist on each thread across disc operations, so
// a call allocates only when its mask is larger than any before it on that
// thread. Segment() runs on pool workers; each worker keeps its own.
struct DiscScratch {
  std::vector<std::int32_t> reach;
  std::vector<std::uint8_t> span;
  ImageT<std::uint16_t> dist16;
  ImageT<std::uint32_t> dist32;
};

DiscScratch& ThreadScratch() {
  thread_local DiscScratch scratch;
  return scratch;
}

// The sweeps of DiscReach over one mask. `reach` has cap + 1 entries and
// Dist holds values up to cap + 1. `mask` is read in full before `out` is
// written, so the two may be the same bitmap.
template <typename Dist>
void SweepDisc(const Bitmap& mask, bool erode,
               std::span<const std::int32_t> reach, ImageT<Dist>* dist,
               Bitmap* out) {
  const int w = mask.width(), h = mask.height();
  const auto cap = static_cast<Dist>(reach.size() - 1);
  const std::uint8_t reached = erode ? kMaskClear : kMaskSet;
  const std::uint8_t unreached = erode ? kMaskSet : kMaskClear;

  // Downward sweep: distance to the nearest source at or above each pixel.
  // Row 0 has nothing above it, so it starts at the cap and reads itself.
  dist->Reshape(w, h);
  std::fill(dist->row(0).begin(), dist->row(0).end(), cap);
  for (int y = 0; y < h; ++y) {
    const auto m = mask.row(y);
    const auto d = dist->row(y);
    const auto above = dist->row(std::max(y - 1, 0));
    ForEachColumn(d.size(), [&](std::size_t x) {
      const Dist far = std::min<Dist>(above[x] + 1, cap);
      d[x] = static_cast<Dist>(far * ((m[x] == 0) != erode));
    });
  }

  // Upward sweep, then the row pass on each finished row.
  out->Reshape(w, h);
  for (int y = h - 1; y >= 0; --y) {
    const auto d = dist->row(y);
    if (y + 1 < h) {
      const auto below = dist->row(y + 1);
      ForEachColumn(d.size(), [&](std::size_t x) {
        d[x] = std::min<Dist>(d[x], below[x] + 1);
      });
    }
    const auto o = out->row(y);
    std::int64_t right = -1;  // furthest column reached from the left
    // bblint: allow(no-per-pixel-loop) -- running max along the row, not a per-pixel map
    for (int x = 0; x < w; ++x) {
      right = std::max<std::int64_t>(right, x + std::int64_t{reach[d[x]]});
      o[x] = right >= x;
    }
    std::int64_t left = w;  // furthest column reached from the right
    for (int x = w - 1; x >= 0; --x) {
      left = std::min<std::int64_t>(left, x - std::int64_t{reach[d[x]]});
      o[x] = (o[x] || left <= x) ? reached : unreached;
    }
  }
}

// Disc reach: the pixels within `radius` of a source pixel, where the
// sources are the mask's set pixels or, when `erode`, its clear pixels (and
// the result is then complemented). It evaluates the definition - threshold
// the squared distance transform at r2 = float(radius * radius) - with
// integers. A table reach[g] holds the largest dx with
// float(dx^2 + g^2) <= r2 for each vertical offset g that can still reach
// (dx capped at w - 1, g below h); it does not increase with g. Two exact
// evaluations share the table (DESIGN.md section 15):
//   * Row spans, when the disc's clipped extent is at most
//     kDiscSpanMaxExtent columns and rows either way: the disc is the union
//     of its row segments, so a pixel is reached when a source lies within
//     reach[|dy|] columns on the row dy away (kernels::DiscSpan).
//   * Sweeps, for larger discs. Column pass: a downward and an upward sweep
//     give each pixel the vertical distance g to the nearest source in its
//     column, capped at one past the largest offset that can still reach.
//     Row pass: within one column the nearest source minimises
//     dx^2 + dy^2, so the disc around (x', y) holds a source in column x
//     iff |x - x'| <= reach[g(x)]. Two linear sweeps per row decide every
//     pixel: a running max of x + reach going right and a running min of
//     x - reach going left.
// The transform's squared distances are exact integers below 2^24, so both
// evaluate the same predicate over the same candidates and agree bit for
// bit. There are no sources outside the image: dilation sees no set pixels
// beyond the border, and erosion treats the outside as set.
void DiscReach(const Bitmap& mask, double radius, bool erode, Bitmap* out) {
  const int w = mask.width(), h = mask.height();
  const float r2 = static_cast<float>(radius * radius);
  // NaN reaches nothing. A radius whose square reaches the transform's
  // empty-mask sentinel reaches every pixel, even from an empty mask.
  if (std::isnan(r2) || r2 >= kInf) {
    const bool reaches_all = !std::isnan(r2);
    out->Reshape(w, h);
    out->Fill(reaches_all != erode ? kMaskSet : kMaskClear);
    return;
  }
  if (w == 0 || h == 0) {
    out->Reshape(w, h);
    return;
  }

  // reach[g] for the vertical offsets g that can still reach; offsets are
  // squared in 64 bits, so no image size or radius overflows.
  DiscScratch& scratch = ThreadScratch();
  std::vector<std::int32_t>& reach = scratch.reach;
  reach.clear();
  for (std::int64_t g = 0, dx = w - 1; g < h; ++g) {
    while (dx >= 0 && static_cast<float>(dx * dx + g * g) > r2) --dx;
    if (dx < 0) break;
    reach.push_back(static_cast<std::int32_t>(dx));
  }
  // Offsets 0 .. rows - 1 reach (rows >= 1: dx = 0 passes at g = 0).
  const std::size_t rows = reach.size();
  if (reach[0] <= kDiscSpanMaxExtent &&
      rows - 1 <= static_cast<std::size_t>(kDiscSpanMaxExtent)) {
    const std::size_t need = kernels::DiscSpanScratchSize(
        static_cast<std::size_t>(w), static_cast<std::size_t>(h));
    if (scratch.span.size() < need) scratch.span.resize(need);
    out->Reshape(w, h);
    kernels::DiscSpan(mask.pixels(), static_cast<std::size_t>(w), reach,
                      erode, scratch.span, out->pixels());
    return;
  }
  // The sweeps: reach[cap] = -1 reaches nothing, and the distance plane is
  // 16-bit unless the cap needs more (a radius and a height both beyond
  // 65534 rows).
  reach.push_back(-1);
  if (reach.size() <= 0xFFFF) {
    SweepDisc<std::uint16_t>(mask, erode, reach, &scratch.dist16, out);
  } else {
    SweepDisc<std::uint32_t>(mask, erode, reach, &scratch.dist32, out);
  }
}

}  // namespace

FloatImage SquaredDistanceToSet(const Bitmap& mask) {
  const int w = mask.width(), h = mask.height();
  FloatImage dist(w, h);
  if (w == 0 || h == 0) return dist;

  // Initialize: 0 inside the set, +inf outside.
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      dist(x, y) = mask(x, y) ? 0.0f : kInf;
    }
  }

  const int n = std::max(w, h);
  std::vector<float> f(n), d(n), z(n + 1);
  std::vector<int> v(n);

  // Transform along columns.
  for (int x = 0; x < w; ++x) {
    for (int y = 0; y < h; ++y) f[y] = dist(x, y);
    Dt1d(f.data(), d.data(), h, v.data(), z.data());
    for (int y = 0; y < h; ++y) dist(x, y) = d[y];
  }
  // Transform along rows.
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) f[x] = dist(x, y);
    Dt1d(f.data(), d.data(), w, v.data(), z.data());
    for (int x = 0; x < w; ++x) dist(x, y) = d[x];
  }
  return dist;
}

void DilateDisc(const Bitmap& mask, double radius, Bitmap* out) {
  if (radius <= 0.0) {
    if (out != &mask) *out = mask;
    return;
  }
  DiscReach(mask, radius, /*erode=*/false, out);
}

void ErodeDisc(const Bitmap& mask, double radius, Bitmap* out) {
  if (radius <= 0.0) {
    if (out != &mask) *out = mask;
    return;
  }
  DiscReach(mask, radius, /*erode=*/true, out);
}

void CloseDisc(const Bitmap& mask, double radius, Bitmap* out) {
  DilateDisc(mask, radius, out);
  ErodeDisc(*out, radius, out);
}

Bitmap DilateDisc(const Bitmap& mask, double radius) {
  Bitmap out;
  DilateDisc(mask, radius, &out);
  return out;
}

Bitmap ErodeDisc(const Bitmap& mask, double radius) {
  Bitmap out;
  ErodeDisc(mask, radius, &out);
  return out;
}

Bitmap OpenDisc(const Bitmap& mask, double radius) {
  Bitmap out;
  ErodeDisc(mask, radius, &out);
  DilateDisc(out, radius, &out);
  return out;
}

Bitmap CloseDisc(const Bitmap& mask, double radius) {
  Bitmap out;
  CloseDisc(mask, radius, &out);
  return out;
}

Bitmap BoundaryRing(const Bitmap& mask, double radius) {
  return AndNot(DilateDisc(mask, radius), mask);
}

}  // namespace bb::imaging
