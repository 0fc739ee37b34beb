// Internal: the peel-candidate record and the generic peeling loop shared
// by every PRIM peel state. Split out of prim.cc so the shard coordinator
// can drive the exact same loop over a distributed peel state (shard/) --
// box sequences stay bit-identical to the single-process kernels by
// construction, because there is only one loop.
#ifndef REDS_CORE_PRIM_LOOP_H_
#define REDS_CORE_PRIM_LOOP_H_

#include <algorithm>
#include <cassert>
#include <vector>

#include "core/box.h"
#include "core/dataset.h"
#include "core/prim.h"
#include "core/quality.h"

namespace reds {

// A candidate peel: restrict dimension `dim` on one side to `bound`.
struct Peel {
  int dim = -1;
  bool low_side = true;   // true: raise lo to `bound`; false: drop hi
  double bound = 0.0;
  int bin = -1;           // boundary bin (quantized kernels only)
  double removed_n = 0.0;
  double removed_pos = 0.0;
  double precision_after = -1.0;
};

// One dimension's in-box bin histogram, walked from the edge a query is
// near. Every in-box row of the dimension lies in bins [lo_bin, hi_bin]
// (the bins of its first and last live rows), so low-side queries walk up
// from lo_bin and high-side queries walk down from hi_bin. A peel cuts
// about an alpha share off one edge, so a walk crosses the bins of that
// share instead of every bin below it; bins outside [lo_bin, hi_bin] hold
// no in-box row, so every count equals the one a walk from bin 0 gives.
// High-side cuts count rows down from the top; that equals n minus the
// count up from the bottom only on NaN-free columns, which
// ColumnIndex::Build's comparator already requires. Shared by the binned,
// streamed and fleet peel states so their walks cannot drift apart.
struct InBoxBins {
  const int* count = nullptr;    // [bin] in-box rows
  const double* mass = nullptr;  // [bin] in-box label sum
  int lo_bin = 0;
  int hi_bin = -1;

  // Bin holding the in-box row `rank` places from the low edge, or from
  // the top edge when `from_top`. *passed and *passed_mass receive the rows
  // and label mass of the bins walked past (all bins below that bin, or
  // all bins above it); the mass is exact for {0,1} labels only.
  int BinAtRank(int rank, bool from_top, int* passed,
                double* passed_mass) const {
    int cum = 0;
    double sum = 0.0;
    int b = from_top ? hi_bin : lo_bin;
    if (from_top) {
      for (; b > lo_bin && cum + count[b] <= rank; --b) {
        cum += count[b];
        sum += mass[b];
      }
    } else {
      for (; b < hi_bin && cum + count[b] <= rank; ++b) {
        cum += count[b];
        sum += mass[b];
      }
    }
    assert(cum + count[b] > rank && "in-box rank out of range");
    *passed = cum;
    *passed_mass = sum;
    return b;
  }
};

// Peel candidate of the bin-atomic kernels (streamed and fleet): bins are
// indivisible value blocks. The cut removes the bins that lie wholly
// between the edge and the in-box row k places from it; when that removes
// nothing (the edge bin alone holds more than k rows), it moves past the
// edge bin, the way the exact kernels move past a tied block.
struct BinCut {
  int bin = -1;               // bin the new bound comes from; -1: no cut
  int removed = 0;            // in-box rows cut off
  double removed_mass = 0.0;  // their label sum (exact for {0,1} labels)
};

inline BinCut MakeBinCut(const InBoxBins& bins, int n, int k, bool low_side) {
  BinCut cut;
  int passed;
  double mass;
  int b = bins.BinAtRank(k, !low_side, &passed, &mass);
  if (passed == 0) {
    const int edge = bins.count[b];
    if (edge >= n) return cut;  // dimension is constant in box
    b = bins.BinAtRank(edge, !low_side, &passed, &mass);
  }
  cut.bin = b;
  cut.removed = passed;
  cut.removed_mass = mass;
  return cut;
}

// The peeling loop, generic over the peel state (every state exposes the
// same MakeCandidate/Apply interface). The training data lives entirely
// inside the state -- this loop only needs its shape and label mass -- so
// the same code runs materialized (BinnedPeelState), streamed
// (CodePeelState) and sharded (shard::FleetPeelState) datasets.
// `val` may be null (the streamed D_val = D case): validation stats then
// mirror the training stats and the geometric validation cut is exactly
// the applied peel, so there is nothing separate to track.
template <typename State>
PrimResult RunPeelingPhase(int dims, double train_rows,
                           double total_train_pos, const Dataset* val,
                           const PrimConfig& config, State* state) {
  const bool external_val = val != nullptr;
  const double total_val_pos =
      external_val ? val->TotalPositive() : total_train_pos;

  PrimResult result;
  Box box = Box::Unbounded(dims);

  std::vector<int> val_rows;
  BoxStats train_stats{train_rows, total_train_pos};
  BoxStats val_stats = train_stats;
  if (external_val) {
    val_rows.resize(static_cast<size_t>(val->num_rows()));
    for (int i = 0; i < val->num_rows(); ++i) {
      val_rows[static_cast<size_t>(i)] = i;
    }
    val_stats = {static_cast<double>(val->num_rows()), total_val_pos};
  }

  auto record = [&]() {
    result.boxes.push_back(box);
    result.train_curve.push_back(
        {Recall(train_stats, total_train_pos), Precision(train_stats)});
    const BoxStats& v = external_val ? val_stats : train_stats;
    result.val_curve.push_back({Recall(v, total_val_pos), Precision(v)});
  };
  record();

  while (train_stats.n >= config.min_points &&
         (!external_val || val_stats.n >= config.min_points)) {
    // Highest precision wins; break ties patiently (remove fewer points).
    Peel best;
    for (int j = 0; j < dims; ++j) {
      for (bool low : {true, false}) {
        const Peel cand = state->MakeCandidate(j, low, config.alpha,
                                               train_stats);
        if (cand.dim < 0) continue;
        if (cand.precision_after > best.precision_after ||
            (cand.precision_after == best.precision_after &&
             best.dim >= 0 && cand.removed_n < best.removed_n)) {
          best = cand;
        }
      }
    }
    if (best.dim < 0) break;  // box is a single point block in every dimension

    if (best.low_side) {
      box.set_lo(best.dim, std::max(box.lo(best.dim), best.bound));
    } else {
      box.set_hi(best.dim, std::min(box.hi(best.dim), best.bound));
    }
    state->Apply(best, &train_stats);
    // Apply the same geometric cut to the validation points.
    if (external_val) {
      size_t kept = 0;
      for (size_t i = 0; i < val_rows.size(); ++i) {
        const int r = val_rows[i];
        const double x = val->x(r, best.dim);
        const bool removed = best.low_side ? x < best.bound : x > best.bound;
        if (removed) {
          val_stats.n -= 1.0;
          val_stats.n_pos -= val->y(r);
        } else {
          val_rows[kept++] = r;
        }
      }
      val_rows.resize(kept);
    }
    if (train_stats.n == 0.0 || (external_val && val_stats.n == 0.0)) {
      // Support vanished; the last recorded box stands.
      break;
    }
    record();
  }

  // Select the box with the highest validation precision; first occurrence
  // (the largest box) wins ties, favoring recall.
  int best_index = 0;
  double best_precision = -1.0;
  for (size_t i = 0; i < result.val_curve.size(); ++i) {
    if (result.val_curve[i].precision > best_precision) {
      best_precision = result.val_curve[i].precision;
      best_index = static_cast<int>(i);
    }
  }
  result.best_val_index = best_index;
  return result;
}

}  // namespace reds

#endif  // REDS_CORE_PRIM_LOOP_H_
