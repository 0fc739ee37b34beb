#include "core/best_interval.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <utility>

#include "core/quality.h"

namespace reds {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Canonical key for box dedup in the beam.
std::vector<double> BoxKey(const Box& b) {
  std::vector<double> key;
  key.reserve(static_cast<size_t>(2 * b.dim()));
  for (int j = 0; j < b.dim(); ++j) {
    key.push_back(b.lo(j));
    key.push_back(b.hi(j));
  }
  return key;
}

// Shared tail of the per-dimension refinement: ties grouped, Kadane over the
// groups, widening over zero-weight neighbors, bounds at data values. `pts`
// is the (x_dim, y - p0) list of points inside the box when `dim` is
// ignored; it is sorted here so both gather strategies feed identical
// sequences into the group sums.
Box BestIntervalFromPoints(std::vector<std::pair<double, double>>* pts,
                           const Box& box, int dim) {
  Box out = box;
  out.set_lo(dim, -kInf);
  out.set_hi(dim, kInf);
  if (pts->empty()) return out;

  std::sort(pts->begin(), pts->end());

  // Group ties: interval bounds must separate distinct values.
  std::vector<double> value;
  std::vector<double> weight;
  for (size_t i = 0; i < pts->size();) {
    size_t j = i;
    double w = 0.0;
    while (j < pts->size() && (*pts)[j].first == (*pts)[i].first) {
      w += (*pts)[j].second;
      ++j;
    }
    value.push_back((*pts)[i].first);
    weight.push_back(w);
    i = j;
  }

  // Kadane over groups; the best (possibly single-group) run wins.
  const size_t g = value.size();
  double best_sum = -kInf;
  size_t best_begin = 0, best_end = 0;  // inclusive group range
  double run_sum = 0.0;
  size_t run_begin = 0;
  for (size_t i = 0; i < g; ++i) {
    if (run_sum <= 0.0) {
      run_sum = weight[i];
      run_begin = i;
    } else {
      run_sum += weight[i];
    }
    if (run_sum > best_sum) {
      best_sum = run_sum;
      best_begin = run_begin;
      best_end = i;
    }
  }

  // Widen over zero-weight neighbors: they do not change WRAcc, and wider
  // intervals restrict fewer sides (all-positive data must stay unbounded).
  while (best_begin > 0 && weight[best_begin - 1] == 0.0) --best_begin;
  while (best_end + 1 < g && weight[best_end + 1] == 0.0) ++best_end;

  // Bounds at data values; runs touching the extremes leave the side open,
  // so a full-range optimum keeps the dimension unrestricted.
  if (best_begin > 0) out.set_lo(dim, value[best_begin]);
  if (best_end + 1 < g) out.set_hi(dim, value[best_end]);
  return out;
}

}  // namespace

double BoxWRAcc(const Dataset& d, const Box& box) {
  const BoxStats stats = ComputeBoxStats(d, box);
  return WRAcc(stats, d.num_rows(), d.TotalPositive());
}

Box BestIntervalForDimension(const Dataset& d, const Box& box, int dim) {
  assert(dim >= 0 && dim < d.num_cols());
  const double p0 = d.PositiveShare();

  // Points inside the box when dimension `dim` is ignored.
  std::vector<std::pair<double, double>> pts;  // (x_dim, weight)
  for (int r = 0; r < d.num_rows(); ++r) {
    const double* x = d.row(r);
    bool inside = true;
    for (int j = 0; j < d.num_cols() && inside; ++j) {
      if (j == dim) continue;
      inside = x[j] >= box.lo(j) && x[j] <= box.hi(j);
    }
    if (inside) pts.emplace_back(x[dim], d.y(r) - p0);
  }
  return BestIntervalFromPoints(&pts, box, dim);
}

Box BestIntervalForDimensionIndexed(const Dataset& d, const ColumnIndex& index,
                                    const Box& box, int dim,
                                    const std::vector<int>& viol) {
  assert(dim >= 0 && dim < d.num_cols());
  assert(static_cast<int>(viol.size()) == d.num_rows());
  const double p0 = d.PositiveShare();

  // Walking dimension `dim`'s permutation splits the rows into three rank
  // ranges: below lo (the row violates dim's low bound), within [lo, hi]
  // (no dim violation), above hi (high-bound violation). "Inside the box
  // ignoring dim" is then a violation-count test per range.
  const std::vector<int>& s = index.sorted_rows(dim);
  const int n = index.num_rows();
  const int lo_rank = index.LowerBoundRank(dim, box.lo(dim));
  const int hi_rank = index.UpperBoundRank(dim, box.hi(dim));

  std::vector<std::pair<double, double>> pts;  // (x_dim, weight)
  for (int i = 0; i < n; ++i) {
    const int r = s[static_cast<size_t>(i)];
    const int required = (i < lo_rank || i >= hi_rank) ? 1 : 0;
    if (viol[static_cast<size_t>(r)] != required) continue;
    pts.emplace_back(d.x(r, dim), d.y(r) - p0);
  }
  return BestIntervalFromPoints(&pts, box, dim);
}

BiResult RunBi(const Dataset& d, const BiConfig& config,
               const ColumnIndex* index) {
  assert(d.num_rows() > 0);
  std::shared_ptr<const ColumnIndex> owned;
  if (index == nullptr) {
    owned = ColumnIndex::Build(d);
    index = owned.get();
  }
  assert(index->num_rows() == d.num_rows());
  assert(index->num_cols() == d.num_cols());
  const int dims = d.num_cols();
  const int max_restricted =
      config.max_restricted > 0 ? std::min(config.max_restricted, dims) : dims;

  struct Scored {
    Box box;
    double wracc;
  };
  auto top = [&](std::vector<Scored>* set, int keep) {
    std::stable_sort(set->begin(), set->end(), [](const Scored& a, const Scored& b) {
      return a.wracc > b.wracc;
    });
    if (static_cast<int>(set->size()) > keep) {
      set->resize(static_cast<size_t>(keep));
    }
  };

  std::vector<Scored> beam;
  beam.push_back({Box::Unbounded(dims), BoxWRAcc(d, Box::Unbounded(dims))});

  for (int iter = 0; iter < config.max_iterations; ++iter) {
    std::vector<Scored> candidates = beam;
    std::vector<std::vector<double>> keys;
    keys.reserve(candidates.size());
    for (const auto& s : candidates) keys.push_back(BoxKey(s.box));

    for (const auto& s : beam) {
      // One violation-count pass serves all of this box's refinements.
      const std::vector<int> viol = CountBoundViolations(*index, s.box);
      for (int j = 0; j < dims; ++j) {
        Box refined =
            BestIntervalForDimensionIndexed(d, *index, s.box, j, viol);
        if (refined.NumRestricted() > max_restricted) continue;
        auto key = BoxKey(refined);
        if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
        keys.push_back(std::move(key));
        const double w = BoxWRAcc(d, refined);
        candidates.push_back({std::move(refined), w});
      }
    }
    top(&candidates, config.beam_size);
    // Fixed point: candidate set equals the current beam.
    bool same = candidates.size() == beam.size();
    for (size_t i = 0; same && i < beam.size(); ++i) {
      same = BoxKey(candidates[i].box) == BoxKey(beam[i].box);
    }
    beam = std::move(candidates);
    if (same) break;
  }

  BiResult result;
  result.box = beam.front().box;
  result.wracc = beam.front().wracc;
  return result;
}

}  // namespace reds
