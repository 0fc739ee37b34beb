// Scenario quality measures (paper Section 4): precision, recall, WRAcc,
// PR AUC over a peeling trajectory, #restricted, #irrelevantly restricted,
// and consistency.
#ifndef REDS_CORE_QUALITY_H_
#define REDS_CORE_QUALITY_H_

#include <vector>

#include "core/box.h"
#include "core/dataset.h"

namespace reds {

/// precision = n+/n; 0 for empty subgroups.
double Precision(const BoxStats& stats);

/// recall = n+/N+; 0 when the dataset has no positives.
double Recall(const BoxStats& stats, double total_pos);

/// WRAcc = n/N * (n+/n - N+/N); 0 for empty subgroups.
double WRAcc(const BoxStats& stats, double total_n, double total_pos);

/// One point of a peeling trajectory in PR space.
struct PrPoint {
  double recall = 0.0;
  double precision = 0.0;
};

/// Area under the piecewise-linear precision-recall curve of a peeling
/// trajectory (paper Figure 5). Points are sorted by recall; the curve is
/// extended left to recall 0 at the precision of its lowest-recall point and
/// integrated by trapezoids. Higher is better; returns 0 for empty input.
double PrAuc(std::vector<PrPoint> points);

/// ComputeBoxStats(d, boxes[k]) for every box of a sequence, bit for bit,
/// at the cost of one full scan per run of nested boxes. When box k has
/// every lo >= and every hi <= those of box k-1 (a peeling trajectory),
/// the rows inside box k-1 are filtered on the changed dimensions only,
/// with Box::Contains' comparison, and n_pos is summed over the survivors
/// in ascending row order -- ComputeBoxStats' order. Any other box (a
/// pasted one, a Pareto set's next box, or one with a NaN bound, which
/// fails the >= / <= test) is scanned in full.
std::vector<BoxStats> TrajectoryStats(const Dataset& d,
                                      const std::vector<Box>& boxes);

/// Evaluates a box sequence on a dataset (TrajectoryStats) and computes
/// the PR AUC there.
double PrAucOnData(const std::vector<Box>& boxes, const Dataset& d);

/// Consistency of two discovered boxes: V(overlap) / V(union) with infinite
/// sides clamped to the domain (paper Definition 2). Returns a value in
/// [0, 1]; two empty boxes give 1 (identical scenarios).
double Consistency(const Box& a, const Box& b,
                   const std::vector<double>& domain_lo,
                   const std::vector<double>& domain_hi);

/// Mean pairwise consistency over a set of boxes from repeated runs.
double MeanPairwiseConsistency(const std::vector<Box>& boxes,
                               const std::vector<double>& domain_lo,
                               const std::vector<double>& domain_hi);

/// #irrel: restricted dimensions that do not affect the output, given the
/// ground-truth relevance mask of the simulation model.
int NumIrrelevantRestricted(const Box& box, const std::vector<bool>& relevant);

}  // namespace reds

#endif  // REDS_CORE_QUALITY_H_
