#include "imaging/connected_components.h"

#include <algorithm>

namespace bb::imaging {

Labeling LabelComponents(const Bitmap& mask, Connectivity connectivity) {
  const int w = mask.width(), h = mask.height();
  Labeling out;
  out.labels = ImageT<int>(w, h, 0);
  if (w == 0 || h == 0) return out;

  std::vector<Point> stack;
  int next_label = 0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (!mask(x, y) || out.labels(x, y) != 0) continue;
      ++next_label;
      Component comp;
      comp.label = next_label;
      comp.bbox = {x, y, 1, 1};
      double sum_x = 0.0, sum_y = 0.0;
      stack.push_back({x, y});
      out.labels(x, y) = next_label;
      while (!stack.empty()) {
        const Point p = stack.back();
        stack.pop_back();
        ++comp.area;
        sum_x += p.x;
        sum_y += p.y;
        comp.bbox = comp.bbox.Union({p.x, p.y, 1, 1});
        constexpr int kDx[] = {1, -1, 0, 0, 1, 1, -1, -1};
        constexpr int kDy[] = {0, 0, 1, -1, 1, -1, 1, -1};
        const int neighbours =
            connectivity == Connectivity::kEight ? 8 : 4;
        for (int k = 0; k < neighbours; ++k) {
          const int nx = p.x + kDx[k], ny = p.y + kDy[k];
          if (nx < 0 || ny < 0 || nx >= w || ny >= h) continue;
          if (!mask(nx, ny) || out.labels(nx, ny) != 0) continue;
          out.labels(nx, ny) = next_label;
          stack.push_back({nx, ny});
        }
      }
      comp.centroid = {sum_x / static_cast<double>(comp.area),
                       sum_y / static_cast<double>(comp.area)};
      out.components.push_back(comp);
    }
  }
  return out;
}

Bitmap RemoveSmallComponents(const Bitmap& mask, std::size_t min_area) {
  const Labeling labeling = LabelComponents(mask);
  std::vector<bool> keep(labeling.components.size() + 1, false);
  for (const Component& c : labeling.components) {
    keep[static_cast<std::size_t>(c.label)] = c.area >= min_area;
  }
  Bitmap out(mask.width(), mask.height());
  for (int y = 0; y < mask.height(); ++y) {
    for (int x = 0; x < mask.width(); ++x) {
      const int label = labeling.labels(x, y);
      out(x, y) = (label != 0 && keep[static_cast<std::size_t>(label)])
                      ? kMaskSet
                      : kMaskClear;
    }
  }
  return out;
}

Bitmap LargestComponent(const Bitmap& mask, std::size_t min_area) {
  const Labeling labeling = LabelComponents(mask);
  const auto best = std::max_element(
      labeling.components.begin(), labeling.components.end(),
      [](const Component& a, const Component& b) { return a.area < b.area; });
  if (best == labeling.components.end() || best->area < min_area) {
    return Bitmap(mask.width(), mask.height());
  }
  Bitmap out(mask.width(), mask.height());
  for (int y = 0; y < mask.height(); ++y) {
    for (int x = 0; x < mask.width(); ++x) {
      out(x, y) = labeling.labels(x, y) == best->label ? kMaskSet : kMaskClear;
    }
  }
  return out;
}

}  // namespace bb::imaging
