// Test-only oracles for PRIM with bumping, kept as the straightforward
// implementation: every replicate materializes its bootstrap sample
// (SubsetRows + SelectColumns), re-sorts it and peels it with the sorted-
// view kernel (reference::RunPrimSorted), every lifted box is scored on
// the validation data by its own full ComputeBoxStats scan, and the Pareto
// filter compares every pair.
// The library's bootstrap views, nested trajectory scoring and sort-and-
// sweep filter must reproduce these bit for bit.
#ifndef REDS_TESTS_REFERENCE_BUMPING_H_
#define REDS_TESTS_REFERENCE_BUMPING_H_

#include <algorithm>
#include <cassert>
#include <numeric>
#include <vector>

#include "core/bumping.h"
#include "core/prim.h"
#include "core/quality.h"
#include "reference_prim.h"
#include "util/rng.h"

namespace reds::reference {

/// O(n^2) Pareto filter: a point is dropped when a not-yet-dropped point
/// is >= in recall and precision and > in one of them; then exact
/// duplicates in PR space are dropped, keeping the first.
inline void ParetoFilterReference(std::vector<Box>* boxes,
                                  std::vector<PrPoint>* curve) {
  assert(boxes->size() == curve->size());
  const size_t n = boxes->size();
  std::vector<bool> dominated(n, false);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n && !dominated[i]; ++j) {
      if (i == j || dominated[j]) continue;
      const bool geq = (*curve)[j].recall >= (*curve)[i].recall &&
                       (*curve)[j].precision >= (*curve)[i].precision;
      const bool strict = (*curve)[j].recall > (*curve)[i].recall ||
                          (*curve)[j].precision > (*curve)[i].precision;
      if (geq && strict) dominated[i] = true;
    }
  }
  std::vector<Box> kept_boxes;
  std::vector<PrPoint> kept_curve;
  for (size_t i = 0; i < n; ++i) {
    if (dominated[i]) continue;
    bool duplicate = false;
    for (size_t j = 0; j < kept_curve.size(); ++j) {
      if (kept_curve[j].recall == (*curve)[i].recall &&
          kept_curve[j].precision == (*curve)[i].precision) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    kept_boxes.push_back((*boxes)[i]);
    kept_curve.push_back((*curve)[i]);
  }
  *boxes = std::move(kept_boxes);
  *curve = std::move(kept_curve);
}

/// PR AUC of a box sequence with one full ComputeBoxStats scan per box.
inline double PrAucOnDataReference(const std::vector<Box>& boxes,
                                   const Dataset& d) {
  const double total_pos = d.TotalPositive();
  std::vector<PrPoint> points;
  points.reserve(boxes.size());
  for (const Box& b : boxes) {
    const BoxStats stats = ComputeBoxStats(d, b);
    points.push_back({Recall(stats, total_pos), Precision(stats)});
  }
  return PrAuc(std::move(points));
}

/// PRIM with bumping, one materialized and re-sorted sample per replicate,
/// peeled by the sorted-view kernel, replicates in a serial loop.
inline BumpingResult RunPrimBumpingReference(const Dataset& train,
                                             const Dataset& val,
                                             const BumpingConfig& config,
                                             uint64_t seed) {
  assert(train.num_rows() > 0);
  const int dims = train.num_cols();
  const int m = config.m > 0 ? std::min(config.m, dims) : dims;

  std::vector<Box> boxes;
  std::vector<PrPoint> curve;
  const double total_val_pos = val.TotalPositive();

  for (int rep = 0; rep < config.q; ++rep) {
    Rng rng(DeriveSeed(seed, static_cast<uint64_t>(rep)));
    const std::vector<int> rows = rng.BootstrapIndices(train.num_rows());
    std::vector<int> columns = rng.SampleWithoutReplacement(dims, m);
    std::sort(columns.begin(), columns.end());

    const Dataset d_bs = train.SubsetRows(rows).SelectColumns(columns);
    if (d_bs.TotalPositive() == 0.0 ||
        d_bs.TotalPositive() == d_bs.num_rows()) {
      continue;  // degenerate bootstrap sample
    }
    const PrimResult prim = RunPrimSorted(d_bs, d_bs, config.prim);
    for (const Box& b : prim.ReturnedBoxes()) {
      Box lifted = b.LiftToFullSpace(dims, columns);
      const BoxStats stats = ComputeBoxStats(val, lifted);
      curve.push_back({Recall(stats, total_val_pos), Precision(stats)});
      boxes.push_back(std::move(lifted));
    }
  }

  if (boxes.empty()) {
    Box full = Box::Unbounded(dims);
    const BoxStats stats = ComputeBoxStats(val, full);
    curve.push_back({Recall(stats, total_val_pos), Precision(stats)});
    boxes.push_back(std::move(full));
  }

  ParetoFilterReference(&boxes, &curve);

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

}  // namespace reds::reference

#endif  // REDS_TESTS_REFERENCE_BUMPING_H_
