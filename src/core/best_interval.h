// The BestInterval (BI) subgroup-discovery algorithm (Mampaey et al. 2012;
// paper Algorithm 3): beam search that re-optimizes one dimension at a time
// with the linear-time BestIntervalWRAcc subroutine.
//
// Key identity: WRAcc(B) = (1/N) * sum_{i in B} (y_i - N+/N), so the best
// interval along one dimension (others fixed) is a maximum-sum contiguous
// run over the in-box points sorted by that coordinate, with ties grouped --
// Kadane's algorithm in O(n) after sorting (paper Section 7).
#ifndef REDS_CORE_BEST_INTERVAL_H_
#define REDS_CORE_BEST_INTERVAL_H_

#include <vector>

#include "core/box.h"
#include "core/column_index.h"
#include "core/dataset.h"

namespace reds {

struct BiConfig {
  int beam_size = 1;       // bs: candidate boxes kept per iteration
  int max_restricted = -1; // m: max restricted inputs; -1: all M
  int max_iterations = 64; // safety cap on the while loop
};

struct BiResult {
  Box box;
  double wracc = 0.0;  // on the training data
};

/// Runs BI on d (targets may be fractional) and returns the box with the
/// highest WRAcc. The beam's per-dimension refinements enumerate candidate
/// points through per-column sorted permutations and a violation-count
/// array (one O(N M) pass per beam box) instead of an O(N M) scan per
/// dimension. Pass a prebuilt index of `d` to amortize it across runs; when
/// null, a private one is built.
BiResult RunBi(const Dataset& d, const BiConfig& config,
               const ColumnIndex* index = nullptr);

/// BestIntervalWRAcc: given a box, returns a copy with dimension `dim`'s
/// bounds replaced by the WRAcc-optimal interval (bounds at data values;
/// sides touching the in-box extremes become unbounded). Exposed for tests
/// against a brute-force reference.
Box BestIntervalForDimension(const Dataset& d, const Box& box, int dim);

/// As BestIntervalForDimension, but gathers the "inside when `dim` is
/// ignored" points from the sorted permutation of `dim` guarded by
/// `viol = CountBoundViolations(index, box)`. Identical output.
Box BestIntervalForDimensionIndexed(const Dataset& d, const ColumnIndex& index,
                                    const Box& box, int dim,
                                    const std::vector<int>& viol);

/// WRAcc of a box on d (= (n+ - n * N+/N) / N).
double BoxWRAcc(const Dataset& d, const Box& box);

}  // namespace reds

#endif  // REDS_CORE_BEST_INTERVAL_H_
