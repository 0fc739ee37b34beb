#include "core/bumping.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <memory>
#include <numeric>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace reds {

void ParetoFilter(std::vector<Box>* boxes, std::vector<PrPoint>* curve) {
  assert(boxes->size() == curve->size());
  const std::vector<PrPoint>& c = *curve;
  const size_t n = c.size();
  // A point with a NaN coordinate fails every comparison: it dominates
  // nothing, nothing dominates it, and it duplicates nothing, so it stays.
  std::vector<uint8_t> keep(n, 1);
  std::vector<size_t> order;
  order.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!std::isnan(c[i].recall) && !std::isnan(c[i].precision)) {
      order.push_back(i);
    }
  }
  // Recall descending, then precision descending, then index: a point is
  // dominated iff a higher-recall point has precision >= its own or an
  // equal-recall point has a higher one, so only the first point of each
  // equal-recall run can survive -- the others are dominated or are later
  // duplicates of it -- and it survives iff its precision beats every
  // higher-recall run's best.
  std::sort(order.begin(), order.end(), [&c](size_t a, size_t b) {
    if (c[a].recall != c[b].recall) return c[a].recall > c[b].recall;
    if (c[a].precision != c[b].precision) {
      return c[a].precision > c[b].precision;
    }
    return a < b;
  });
  bool any_higher = false;
  double best_higher = 0.0;  // max precision over higher-recall runs
  for (size_t g = 0; g < order.size();) {
    const PrPoint& top = c[order[g]];
    size_t e = g + 1;
    for (; e < order.size() && c[order[e]].recall == top.recall; ++e) {
      keep[order[e]] = 0;
    }
    if (any_higher && best_higher >= top.precision) {
      keep[order[g]] = 0;
    } else {
      any_higher = true;
      best_higher = top.precision;
    }
    g = e;
  }
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!keep[i]) continue;
    if (kept != i) {
      (*boxes)[kept] = std::move((*boxes)[i]);
      (*curve)[kept] = (*curve)[i];
    }
    ++kept;
  }
  boxes->resize(kept);
  curve->resize(kept);
}

const Box& BumpingResult::BestBox() const {
  return boxes[static_cast<size_t>(BestIndex())];
}

int BumpingResult::BestIndex() const {
  int best = 0;
  for (size_t i = 1; i < val_curve.size(); ++i) {
    if (val_curve[i].precision > val_curve[static_cast<size_t>(best)].precision) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

BumpingResult RunPrimBumping(const Dataset& train, const Dataset& val,
                             const BumpingConfig& config, uint64_t seed,
                             const ColumnIndex* train_index) {
  assert(train.num_rows() > 0);
  const int dims = train.num_cols();
  const int m = config.m > 0 ? std::min(config.m, dims) : dims;
  std::shared_ptr<const ColumnIndex> owned;
  if (train_index == nullptr) {
    owned = ColumnIndex::Build(train);
    train_index = owned.get();
  }
  assert(train_index->num_rows() == train.num_rows());
  assert(train_index->num_cols() == dims);
  const double total_val_pos = val.TotalPositive();

  // Replicates are independent (each seeds its own Rng), so they run on
  // idle cores, each into its own slot; concatenating the slots in
  // replicate order gives the serial loop's box order.
  struct Replicate {
    std::vector<Box> boxes;
    std::vector<PrPoint> curve;
  };
  std::vector<Replicate> replicates(static_cast<size_t>(std::max(config.q, 0)));
  ParallelFor(0, static_cast<int>(replicates.size()), [&](int rep) {
    Rng rng(DeriveSeed(seed, static_cast<uint64_t>(rep)));
    const std::vector<int> rows = rng.BootstrapIndices(train.num_rows());
    std::vector<int> columns = rng.SampleWithoutReplacement(dims, m);
    std::sort(columns.begin(), columns.end());

    // The sample train.SubsetRows(rows).SelectColumns(columns), built from
    // the presorted index: its columns give the values, and its order
    // gives the sample's permutations without a re-sort.
    const int n = static_cast<int>(rows.size());
    std::vector<double> y(static_cast<size_t>(n));
    double total_pos = 0.0;
    for (int i = 0; i < n; ++i) {
      y[static_cast<size_t>(i)] = train.y(rows[static_cast<size_t>(i)]);
      total_pos += y[static_cast<size_t>(i)];
    }
    if (total_pos == 0.0 || total_pos == n) return;  // degenerate sample
    const std::shared_ptr<const ColumnIndex> index =
        ColumnIndex::BuildBootstrap(*train_index, rows, columns);
    std::vector<double> x(static_cast<size_t>(n) * static_cast<size_t>(m));
    for (int j = 0; j < m; ++j) {
      const std::vector<double>& col = index->column(j);
      for (int i = 0; i < n; ++i) {
        x[static_cast<size_t>(i) * static_cast<size_t>(m) +
          static_cast<size_t>(j)] = col[static_cast<size_t>(i)];
      }
    }
    const Dataset d_bs(m, std::move(x), std::move(y));
    const PrimResult prim = RunPrim(d_bs, d_bs, config.prim, index.get());

    // PRIM boxes are nested and lifting keeps them so: TrajectoryStats
    // scores the whole sequence in one pass over val.
    Replicate& out = replicates[static_cast<size_t>(rep)];
    out.boxes.reserve(static_cast<size_t>(prim.best_val_index) + 1);
    for (int k = 0; k <= prim.best_val_index; ++k) {  // ReturnedBoxes()
      out.boxes.push_back(
          prim.boxes[static_cast<size_t>(k)].LiftToFullSpace(dims, columns));
    }
    for (const BoxStats& stats : TrajectoryStats(val, out.boxes)) {
      out.curve.push_back({Recall(stats, total_val_pos), Precision(stats)});
    }
  });

  std::vector<Box> boxes;
  std::vector<PrPoint> curve;
  for (Replicate& rep : replicates) {
    boxes.insert(boxes.end(), std::make_move_iterator(rep.boxes.begin()),
                 std::make_move_iterator(rep.boxes.end()));
    curve.insert(curve.end(), rep.curve.begin(), rep.curve.end());
  }

  if (boxes.empty()) {
    // Every bootstrap sample was degenerate; fall back to the full box.
    Box full = Box::Unbounded(dims);
    const BoxStats stats = ComputeBoxStats(val, full);
    curve.push_back({Recall(stats, total_val_pos), Precision(stats)});
    boxes.push_back(std::move(full));
  }

  ParetoFilter(&boxes, &curve);

  // Sort by decreasing recall so the sequence reads like a peeling trajectory.
  std::vector<size_t> order(boxes.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return curve[a].recall > curve[b].recall;
  });
  BumpingResult result;
  result.boxes.reserve(boxes.size());
  result.val_curve.reserve(boxes.size());
  for (size_t i : order) {
    result.boxes.push_back(std::move(boxes[i]));
    result.val_curve.push_back(curve[i]);
  }
  return result;
}

}  // namespace reds
