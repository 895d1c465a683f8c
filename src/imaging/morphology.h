// Binary morphology on masks.
//
// The blending-blur mask BBM (paper sec. V-C) is exactly a disc dilation of
// the virtual-background mask by radius phi; the matting-error model also
// uses dilation/erosion to fatten or thin the estimated caller mask. A disc
// operation is defined by the exact Euclidean distance transform: a pixel
// is reached when its squared distance to the set is <= float(radius^2).
// DilateDisc evaluates that predicate with integers from a reach table
// (DESIGN.md section 15): a disc whose clipped extent is at most
// kDiscSpanMaxExtent columns and rows either way is the union of its row
// segments, ORed a row at a time; a larger one takes a column sweep and
// two linear sweeps per row, O(n) at any radius. ErodeDisc runs the same
// code over the clear pixels.
#pragma once

#include "imaging/image.h"

namespace bb::imaging {

// The largest clipped disc extent, in columns and in rows from the centre,
// that takes the row-span path: the measured crossover on 192x144 masks.
inline constexpr int kDiscSpanMaxExtent = 12;

// Exact squared Euclidean distance from each pixel to the nearest SET pixel
// of `mask` (Felzenszwalb-Huttenlocher two-pass algorithm). Pixels inside
// the set have distance 0. If the mask is entirely clear, all distances are
// a large sentinel (> width*height squared).
FloatImage SquaredDistanceToSet(const Bitmap& mask);

// Disc dilation: every pixel within Euclidean distance `radius` of a set
// pixel becomes set; pixels outside the image count as clear. radius <= 0
// returns the mask unchanged, NaN reaches nothing and +inf everything.
Bitmap DilateDisc(const Bitmap& mask, double radius);

// Disc erosion: a pixel stays set only if every pixel within `radius` is
// set (equivalently, its distance to the complement exceeds radius); pixels
// outside the image count as set. The complement of dilating the
// complement, edge radii included.
Bitmap ErodeDisc(const Bitmap& mask, double radius);

// Morphological open (erode then dilate) and close (dilate then erode).
Bitmap OpenDisc(const Bitmap& mask, double radius);
Bitmap CloseDisc(const Bitmap& mask, double radius);

// The same operations into `out`, which takes the mask's shape and may be
// `&mask`. Their planes and tables persist on the calling thread, so a
// call allocates only when the mask outgrows every earlier one there.
void DilateDisc(const Bitmap& mask, double radius, Bitmap* out);
void ErodeDisc(const Bitmap& mask, double radius, Bitmap* out);
void CloseDisc(const Bitmap& mask, double radius, Bitmap* out);

// The set of pixels within `radius` of the mask but not in the mask itself -
// the "ring" used for the blending region.
Bitmap BoundaryRing(const Bitmap& mask, double radius);

}  // namespace bb::imaging
