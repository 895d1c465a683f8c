#include "imaging/connected_components.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace bb::imaging {

namespace {

// A maximal horizontal run of set pixels, [x0, x1] inclusive, on row y.
struct Run {
  int y = 0;
  int x0 = 0;
  int x1 = 0;
};

// Union-find over run indices. The root of a set is always its smallest
// index, so once every union is done a component's root is its first run
// in raster order.
int FindRoot(std::vector<int>& parent, int r) {
  while (parent[static_cast<std::size_t>(r)] != r) {
    const int up = parent[static_cast<std::size_t>(r)];
    parent[static_cast<std::size_t>(r)] =
        parent[static_cast<std::size_t>(up)];  // path halving
    r = up;
  }
  return r;
}

void Unite(std::vector<int>& parent, int a, int b) {
  a = FindRoot(parent, a);
  b = FindRoot(parent, b);
  if (a == b) return;
  if (a < b) std::swap(a, b);
  parent[static_cast<std::size_t>(a)] = b;
}

}  // namespace

// Run-length union-find labeling: one pass collects each row's runs and
// unites every run with the runs of the row above that touch it (sharing
// a column, or also a corner with 8-connectivity). Labels number the
// components by their first run in raster order - the order in which a
// raster-scan flood fill meets them - and area, bounding box and centroid
// come from the runs. The centroid sums are integers, so they are exact.
Labeling LabelComponents(const Bitmap& mask, Connectivity connectivity) {
  const int w = mask.width(), h = mask.height();
  Labeling out;
  out.labels = ImageT<int>(w, h, 0);
  if (w == 0 || h == 0) return out;

  const int reach = connectivity == Connectivity::kEight ? 1 : 0;
  std::vector<Run> runs;
  std::vector<int> parent;
  std::size_t above_begin = 0, above_end = 0;  // the previous row's runs
  for (int y = 0; y < h; ++y) {
    const auto row = mask.row(y);
    const std::size_t row_begin = runs.size();
    std::size_t above = above_begin;
    for (int x = 0; x < w;) {
      if (!row[static_cast<std::size_t>(x)]) {
        ++x;
        continue;
      }
      const int x0 = x;
      while (x < w && row[static_cast<std::size_t>(x)]) ++x;
      const Run run{y, x0, x - 1};
      const int index = static_cast<int>(runs.size());
      runs.push_back(run);
      parent.push_back(index);
      // Runs above that end left of this run's reach can touch no later
      // run of this row either.
      while (above < above_end && runs[above].x1 + reach < run.x0) ++above;
      for (std::size_t a = above;
           a < above_end && runs[a].x0 <= run.x1 + reach; ++a) {
        Unite(parent, static_cast<int>(a), index);
      }
    }
    above_begin = row_begin;
    above_end = runs.size();
  }

  // Number the roots in raster order, then paint and measure every run.
  std::vector<int> label_of(runs.size(), 0);  // filled for roots only
  std::vector<std::int64_t> sum_x, sum_y;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const Run& run = runs[r];
    const auto root = static_cast<std::size_t>(
        FindRoot(parent, static_cast<int>(r)));
    if (root == r) {
      Component comp;
      comp.label = static_cast<int>(out.components.size()) + 1;
      out.components.push_back(comp);
      sum_x.push_back(0);
      sum_y.push_back(0);
      label_of[r] = comp.label;
    }
    const int label = label_of[root];
    const auto slot = static_cast<std::size_t>(label - 1);
    Component& comp = out.components[slot];
    const std::int64_t len = run.x1 - run.x0 + 1;
    comp.area += static_cast<std::size_t>(len);
    sum_x[slot] += (static_cast<std::int64_t>(run.x0) + run.x1) * len / 2;
    sum_y[slot] += static_cast<std::int64_t>(run.y) * len;
    comp.bbox = comp.bbox.Union({run.x0, run.y, static_cast<int>(len), 1});
    const auto row = out.labels.row(run.y);
    std::fill(row.begin() + run.x0, row.begin() + run.x1 + 1, label);
  }
  for (std::size_t c = 0; c < out.components.size(); ++c) {
    Component& comp = out.components[c];
    const double area = static_cast<double>(comp.area);
    comp.centroid = {static_cast<double>(sum_x[c]) / area,
                     static_cast<double>(sum_y[c]) / area};
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
