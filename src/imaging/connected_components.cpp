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

// The runs of a mask and their components. comp[r] is run r's component,
// numbered from 0 in the raster order of each component's first run - the
// order in which a raster-scan flood fill meets them - and area[c] is
// component c's pixel count. `keep` is a per-component flag for the
// pickers below.
struct RunLabels {
  std::vector<Run> runs;
  std::vector<int> parent;
  std::vector<int> comp;
  std::vector<std::size_t> area;
  std::vector<std::uint8_t> keep;
};

// Persists on each thread across calls, so a labeling allocates only when
// a mask has more runs than any before it on that thread.
RunLabels& ThreadRuns() {
  thread_local RunLabels labels;
  return labels;
}

// Run-length union-find labeling: one pass collects each row's runs and
// unites every run with the runs of the row above that touch it (sharing
// a column, or also a corner with 8-connectivity); a second pass numbers
// the roots in raster order.
void LabelRuns(const Bitmap& mask, Connectivity connectivity,
               RunLabels* out) {
  const int w = mask.width(), h = mask.height();
  std::vector<Run>& runs = out->runs;
  std::vector<int>& parent = out->parent;
  runs.clear();
  parent.clear();
  const int reach = connectivity == Connectivity::kEight ? 1 : 0;
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

  // A root is its component's first run, and every other run comes after
  // its root, so one forward pass numbers them all.
  out->comp.resize(runs.size());
  out->area.clear();
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const auto root =
        static_cast<std::size_t>(FindRoot(parent, static_cast<int>(r)));
    if (root == r) {
      out->comp[r] = static_cast<int>(out->area.size());
      out->area.push_back(0);
    } else {
      out->comp[r] = out->comp[root];
    }
    out->area[static_cast<std::size_t>(out->comp[r])] +=
        static_cast<std::size_t>(runs[r].x1 - runs[r].x0 + 1);
  }
  out->keep.assign(out->area.size(), 0);
}

// Paints the runs of the kept components into `out` (the mask's shape),
// clear elsewhere.
void PaintKept(const RunLabels& labels, int w, int h, Bitmap* out) {
  out->Reshape(w, h);
  out->Fill(kMaskClear);
  for (std::size_t r = 0; r < labels.runs.size(); ++r) {
    if (!labels.keep[static_cast<std::size_t>(labels.comp[r])]) continue;
    const Run& run = labels.runs[r];
    const auto row = out->row(run.y);
    std::fill(row.begin() + run.x0, row.begin() + run.x1 + 1, kMaskSet);
  }
}

}  // namespace

// Labels, area, bounding box and centroid all come from the runs; the
// centroid sums are integers, so they are exact.
Labeling LabelComponents(const Bitmap& mask, Connectivity connectivity) {
  const int w = mask.width(), h = mask.height();
  Labeling out;
  out.labels = ImageT<int>(w, h, 0);
  if (w == 0 || h == 0) return out;

  RunLabels& labels = ThreadRuns();
  LabelRuns(mask, connectivity, &labels);
  const std::size_t count = labels.area.size();
  out.components.resize(count);
  std::vector<std::int64_t> sum_x(count, 0), sum_y(count, 0);
  for (std::size_t r = 0; r < labels.runs.size(); ++r) {
    const Run& run = labels.runs[r];
    const auto slot = static_cast<std::size_t>(labels.comp[r]);
    const int label = labels.comp[r] + 1;
    Component& comp = out.components[slot];
    comp.label = label;
    const std::int64_t len = run.x1 - run.x0 + 1;
    sum_x[slot] += (static_cast<std::int64_t>(run.x0) + run.x1) * len / 2;
    sum_y[slot] += static_cast<std::int64_t>(run.y) * len;
    comp.bbox = comp.bbox.Union({run.x0, run.y, static_cast<int>(len), 1});
    const auto row = out.labels.row(run.y);
    std::fill(row.begin() + run.x0, row.begin() + run.x1 + 1, label);
  }
  for (std::size_t c = 0; c < count; ++c) {
    Component& comp = out.components[c];
    comp.area = labels.area[c];
    const double area = static_cast<double>(comp.area);
    comp.centroid = {static_cast<double>(sum_x[c]) / area,
                     static_cast<double>(sum_y[c]) / area};
  }
  return out;
}

Bitmap RemoveSmallComponents(const Bitmap& mask, std::size_t min_area) {
  RunLabels& labels = ThreadRuns();
  LabelRuns(mask, Connectivity::kFour, &labels);
  for (std::size_t c = 0; c < labels.area.size(); ++c) {
    labels.keep[c] = labels.area[c] >= min_area;
  }
  Bitmap out;
  PaintKept(labels, mask.width(), mask.height(), &out);
  return out;
}

void LargestComponent(const Bitmap& mask, std::size_t min_area,
                      Bitmap* out) {
  RunLabels& labels = ThreadRuns();
  LabelRuns(mask, Connectivity::kFour, &labels);
  const auto best = std::max_element(labels.area.begin(), labels.area.end());
  if (best != labels.area.end() && *best >= min_area) {
    labels.keep[static_cast<std::size_t>(best - labels.area.begin())] = 1;
  }
  PaintKept(labels, mask.width(), mask.height(), out);
}

Bitmap LargestComponent(const Bitmap& mask, std::size_t min_area) {
  Bitmap out;
  LargestComponent(mask, min_area, &out);
  return out;
}

void ComponentsOverlapping(const Bitmap& mask, const Bitmap& seed,
                           Bitmap* out) {
  RequireSameShape(mask, seed, "ComponentsOverlapping");
  RunLabels& labels = ThreadRuns();
  LabelRuns(mask, Connectivity::kFour, &labels);
  for (std::size_t r = 0; r < labels.runs.size(); ++r) {
    const auto c = static_cast<std::size_t>(labels.comp[r]);
    if (labels.keep[c]) continue;
    const Run& run = labels.runs[r];
    const auto row = seed.row(run.y);
    labels.keep[c] = std::any_of(row.begin() + run.x0,
                                 row.begin() + run.x1 + 1,
                                 [](std::uint8_t v) { return v != 0; });
  }
  PaintKept(labels, mask.width(), mask.height(), out);
}

}  // namespace bb::imaging
