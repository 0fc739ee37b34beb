// PRIM with bumping (Kwakkel & Cunningham 2016; paper Algorithm 2):
// Q bootstrap repetitions on random feature subsets, keeping the boxes not
// dominated in (precision, recall) on the validation data.
#ifndef REDS_CORE_BUMPING_H_
#define REDS_CORE_BUMPING_H_

#include <cstdint>
#include <vector>

#include "core/column_index.h"
#include "core/dataset.h"
#include "core/prim.h"

namespace reds {

struct BumpingConfig {
  int q = 50;                 // bootstrap repetitions
  int m = -1;                 // inputs per subset; -1: all M
  PrimConfig prim;            // inner PRIM configuration
};

/// Pareto front of boxes over (recall, precision) on the validation data,
/// sorted by decreasing recall (so the "last" box is the most precise one).
struct BumpingResult {
  std::vector<Box> boxes;
  std::vector<PrPoint> val_curve;  // aligned with `boxes`

  /// Highest-precision non-dominated box (ties: higher recall).
  const Box& BestBox() const;
  int BestIndex() const;
};

/// Runs PRIM with bumping. `seed` drives the bootstrap and feature subsets.
/// Every replicate is a view over one presorted index of `train`: its
/// sample's permutations come from `train_index` by row multiplicity
/// (ColumnIndex::BuildBootstrap), not from a re-sort, and its lifted
/// trajectory is scored on `val` in one nested pass (TrajectoryStats).
/// Replicates run on idle cores (ParallelFor); the result does not depend
/// on how many were idle. Pass a prebuilt index of `train` to share it;
/// when null, a private one is built.
BumpingResult RunPrimBumping(const Dataset& train, const Dataset& val,
                             const BumpingConfig& config, uint64_t seed,
                             const ColumnIndex* train_index = nullptr);

/// Removes boxes dominated in (recall, precision); of equal points only the
/// first is kept, and points with a NaN coordinate always stay. Survivors
/// keep their order. O(n log n): one sort by recall and a sweep. Exposed
/// for tests.
void ParetoFilter(std::vector<Box>* boxes, std::vector<PrPoint>* curve);

}  // namespace reds

#endif  // REDS_CORE_BUMPING_H_
