// Core image container used throughout Background Buster.
//
// An ImageT<P> is a dense row-major 2-D array of pixels of type P. The
// library works with three concrete instantiations:
//   Image      = ImageT<Rgb8>    - 24-bit true-color frames (paper sec. III)
//   Bitmap     = ImageT<uint8_t> - binary masks (VBM / BBM / VCM / LB)
//   FloatImage = ImageT<float>   - intermediate filter results
//
// Coordinates are (x, y) with x the column in [0, width) and y the row in
// [0, height). All accessors are bounds-checked via assert in debug builds;
// at() additionally throws std::out_of_range in all builds so that callers
// exercising untrusted coordinates get a deterministic failure.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "imaging/kernels/pixel.h"

namespace bb::imaging {

// Rgb8 and the kMaskSet/kMaskClear mask values now live in
// imaging/kernels/pixel.h (same namespace) so the kernel layer can stay at
// the bottom of the include graph.

template <typename P>
class ImageT {
 public:
  using Pixel = P;

  ImageT() = default;

  ImageT(int width, int height, P fill = P{})
      : width_(width), height_(height) {
    if (width < 0 || height < 0) {
      throw std::invalid_argument("ImageT: negative dimensions");
    }
    pixels_.assign(static_cast<std::size_t>(width) * height, fill);
  }

  ImageT(const ImageT&) = default;
  ImageT& operator=(const ImageT&) = default;

  // Moves leave the source as an empty 0x0 image. The defaulted move would
  // keep the old width/height on a storage-less image, which silently defeats
  // shape-based reshape checks (e.g. pooled/streamed frame buffers).
  ImageT(ImageT&& other) noexcept
      : width_(std::exchange(other.width_, 0)),
        height_(std::exchange(other.height_, 0)),
        pixels_(std::move(other.pixels_)) {
    other.pixels_.clear();
  }
  ImageT& operator=(ImageT&& other) noexcept {
    if (this != &other) {
      width_ = std::exchange(other.width_, 0);
      height_ = std::exchange(other.height_, 0);
      pixels_ = std::move(other.pixels_);
      other.pixels_.clear();
    }
    return *this;
  }

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return pixels_.empty(); }
  std::size_t pixel_count() const { return pixels_.size(); }

  bool InBounds(int x, int y) const {
    return x >= 0 && y >= 0 && x < width_ && y < height_;
  }

  bool SameShape(const ImageT& other) const {
    return width_ == other.width_ && height_ == other.height_;
  }

  // Unchecked (assert-only) accessors for hot loops.
  P& operator()(int x, int y) {
    assert(InBounds(x, y));
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }
  const P& operator()(int x, int y) const {
    assert(InBounds(x, y));
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }

  // Checked accessors.
  P& at(int x, int y) {
    if (!InBounds(x, y)) throw std::out_of_range("ImageT::at");
    return (*this)(x, y);
  }
  const P& at(int x, int y) const {
    if (!InBounds(x, y)) throw std::out_of_range("ImageT::at");
    return (*this)(x, y);
  }

  // Clamped read: coordinates outside the image read the nearest edge pixel.
  const P& AtClamped(int x, int y) const {
    if (x < 0) x = 0;
    if (y < 0) y = 0;
    if (x >= width_) x = width_ - 1;
    if (y >= height_) y = height_ - 1;
    return (*this)(x, y);
  }

  // Read with a default for out-of-bounds coordinates.
  P AtOr(int x, int y, P fallback) const {
    return InBounds(x, y) ? (*this)(x, y) : fallback;
  }

  void Fill(P value) {
    for (auto& p : pixels_) p = value;
  }

  // Gives the image the shape width x height, reusing its storage when it
  // is large enough, so a scratch image reshaped every frame allocates only
  // when it grows. Pixel values are unspecified until written.
  void Reshape(int width, int height) {
    if (width < 0 || height < 0) {
      throw std::invalid_argument("ImageT: negative dimensions");
    }
    width_ = width;
    height_ = height;
    pixels_.resize(static_cast<std::size_t>(width) * height);
  }

  std::span<P> pixels() { return pixels_; }
  std::span<const P> pixels() const { return pixels_; }

  // A whole row as a span of exactly width() pixels, so row-wise kernels
  // keep bounds information instead of decaying to a raw pointer.
  std::span<P> row(int y) {
    assert(y >= 0 && y < height_);
    return {pixels_.data() + static_cast<std::size_t>(y) * width_,
            static_cast<std::size_t>(width_)};
  }
  std::span<const P> row(int y) const {
    assert(y >= 0 && y < height_);
    return {pixels_.data() + static_cast<std::size_t>(y) * width_,
            static_cast<std::size_t>(width_)};
  }

  bool operator==(const ImageT& other) const = default;

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<P> pixels_;
};

using Image = ImageT<Rgb8>;
using Bitmap = ImageT<std::uint8_t>;
using FloatImage = ImageT<float>;

// --- Bitmap helpers -------------------------------------------------------

// Number of set (non-zero) pixels in a mask.
std::size_t CountSet(const Bitmap& mask);

// Fraction of set pixels, in [0, 1]. Returns 0 for an empty mask.
double SetFraction(const Bitmap& mask);

// Pixel-wise boolean operations. All operands must share the same shape.
Bitmap And(const Bitmap& a, const Bitmap& b);
Bitmap Or(const Bitmap& a, const Bitmap& b);
Bitmap AndNot(const Bitmap& a, const Bitmap& b);  // a & ~b
Bitmap Not(const Bitmap& a);

// Intersection-over-union of two masks; 1.0 when both are empty.
double Iou(const Bitmap& a, const Bitmap& b);

// Throws std::invalid_argument unless both images have identical shape.
template <typename A, typename B>
void RequireSameShape(const ImageT<A>& a, const ImageT<B>& b,
                      const char* what) {
  if (a.width() != b.width() || a.height() != b.height()) {
    throw std::invalid_argument(std::string("shape mismatch in ") + what);
  }
}

}  // namespace bb::imaging
