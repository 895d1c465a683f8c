// Connected-component labeling on binary masks.
//
// Used by the generic-object detectors to isolate candidate blobs in the
// reconstructed background, by the matting model to drop tiny spurious
// mask islands, and by the classical segmenter to pick its seed region and
// the grown regions attached to it.
#pragma once

#include <vector>

#include "imaging/geometry.h"
#include "imaging/image.h"

namespace bb::imaging {

struct Component {
  int label = 0;        // 1-based label as stored in the label image
  Rect bbox;            // tight bounding box
  std::size_t area = 0; // number of pixels
  PointF centroid;      // mean pixel position
};

struct Labeling {
  ImageT<int> labels;               // 0 = background, 1..N = components
  std::vector<Component> components;
};

enum class Connectivity { kFour, kEight };

// Labels all connected components of set pixels (4-connectivity by
// default; 8-connectivity also links diagonal neighbours). Components are
// numbered in the raster order of their first pixel.
Labeling LabelComponents(const Bitmap& mask,
                         Connectivity connectivity = Connectivity::kFour);

// The mask filters below use 4-connectivity. They pick components from
// the labeler's runs and paint only the runs they keep; the run tables
// persist on the calling thread, so a warmed call into `out` allocates
// nothing.

// Removes components with fewer than `min_area` pixels.
Bitmap RemoveSmallComponents(const Bitmap& mask, std::size_t min_area);

// Keeps only the single largest component - the first in raster order on
// a tie - when it has at least `min_area` pixels; otherwise (and for an
// empty mask) the result is empty. One labeling gives the same mask as
// RemoveSmallComponents(mask, min_area) followed by LargestComponent: the
// surviving components keep their raster order.
Bitmap LargestComponent(const Bitmap& mask, std::size_t min_area = 0);
void LargestComponent(const Bitmap& mask, std::size_t min_area, Bitmap* out);

// The components of `mask` that share at least one pixel with the set
// pixels of `seed` (same shape), into `out`.
void ComponentsOverlapping(const Bitmap& mask, const Bitmap& seed,
                           Bitmap* out);

}  // namespace bb::imaging
