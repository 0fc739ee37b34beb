// PRIM kernels. Peel candidates come from per-dimension in-box bin
// histograms over a BinnedIndex, refined by exact scans inside the
// boundary bin (materialized data) or taken bin-atomically (streamed
// codes); the pasting phase enumerates "outside through one bound" points
// from the full-data permutations guarded by a per-dimension violation-
// count array. Produces the same box sequences as the full-rescan and
// sorted-view implementations kept as test oracles in
// tests/reference_prim.h and asserted equivalent in
// tests/prim_equivalence_test.cc.
#include "core/prim.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <utility>

#include "core/prim_loop.h"
#include "obs/trace.h"
#include "util/simd.h"

namespace reds {

namespace {

// True when every label is exactly 0 or 1: then every label sum is an
// exact integer, whatever the order of accumulation.
bool AllZeroOrOne(const double* y, int n) {
  for (int r = 0; r < n; ++r) {
    if (y[r] != 0.0 && y[r] != 1.0) return false;
  }
  return true;
}

// Per-bin row counts and label sums of column j with every row in the box:
// the starting histogram of the binned and streamed peel states. Integer-
// valued labels are exact in any association, so the dispatched
// gather-sum (which may reorder) sums them; fractional labels accumulate
// bin by bin in permutation order -- the sorted kernel's order when bins
// are single values.
void InitBinAggregates(const BinnedIndex& binned, int j, const int* sorted,
                       const double* y, bool integral_labels,
                       std::vector<int>* counts, std::vector<double>* mass) {
  const int bins = binned.num_bins(j);
  counts->resize(static_cast<size_t>(bins));
  mass->assign(static_cast<size_t>(bins), 0.0);
  for (int b = 0; b < bins; ++b) {
    const int begin = binned.bin_begin_rank(j, b);
    const int len = binned.bin_begin_rank(j, b + 1) - begin;
    (*counts)[static_cast<size_t>(b)] = len;
    if (integral_labels) {
      (*mass)[static_cast<size_t>(b)] = util::GatherSum(y, sorted + begin, len);
    } else {
      for (int rank = begin; rank < begin + len; ++rank) {
        (*mass)[static_cast<size_t>(b)] += y[sorted[rank]];
      }
    }
  }
}

// Moves a dimension's permutation window [*lo, *hi) past leading and
// trailing rows that left the box, so later scans start at a live row.
void TrimWindow(const int* sorted, const uint8_t* in_box, int* lo, int* hi) {
  while (*lo < *hi && !in_box[sorted[*lo]]) ++*lo;
  while (*hi > *lo && !in_box[sorted[*hi - 1]]) --*hi;
}

// Label sum of the first `count` in-box rows of a permutation window that
// starts at `lo`, accumulated ascending: the sorted kernel's prefix sums,
// bit for bit. The fractional-label path of the binned and streamed
// kernels (for single-value bins the streamed permutation is the sorted
// kernel's order).
double SumFirstInBox(const int* sorted, const uint8_t* in_box,
                     const double* y, int lo, int count) {
  double sum = 0.0;
  for (int pos = lo, seen = 0; seen < count; ++pos) {
    if (!in_box[sorted[pos]]) continue;
    sum += y[sorted[pos]];
    ++seen;
  }
  return sum;
}

// Label sum of the last `count` in-box rows of a permutation window that
// ends before `hi`, accumulated ascending like the sorted kernel's suffix
// sums: step down to the first of them, then add upward.
double SumLastInBox(const int* sorted, const uint8_t* in_box,
                    const double* y, int hi, int count) {
  int start = hi;
  for (int seen = 0; seen < count;) {
    if (in_box[sorted[--start]]) ++seen;
  }
  double sum = 0.0;
  for (int pos = start; pos < hi; ++pos) {
    if (in_box[sorted[pos]]) sum += y[sorted[pos]];
  }
  return sum;
}

// Binned peel state: the quantized counterpart of the sorted-view kernel
// (reference::SortedPeelState, tests/reference_prim.h). No per-dim sorted
// in-box views are maintained; instead a per-dimension histogram of
// in-box counts per BinnedIndex bin locates each peel's boundary bin, and
// short scans of the full-data sorted permutation inside that bin (filtered
// through the in-box bitmask) refine the exact bound, counts, and
// removed-mass sums -- in the same value-then-row-id order as the sorted
// kernel, so every Peel it produces is bit-identical to that kernel's.
// Histogram walks start at the edge being peeled (InBoxBins): a low-side
// candidate walks up from the lowest in-box bin and counts the rows below
// its bound, a high-side one walks down from the highest and counts the
// rows above it.
// Applying a peel walks only the window of newly removed rows and
// decrements M histogram counters per row: O(removed x M) against the
// sorted kernel's O(N x M) view compaction.
class BinnedPeelState {
 public:
  BinnedPeelState(const Dataset& train, const ColumnIndex& index,
                  const BinnedIndex& binned)
      : train_(train),
        index_(index),
        binned_(binned),
        // +3 padding bytes: the dispatched masked kernels gather mask bytes
        // with 32-bit loads (see util/simd.h), so the bitmask must stay
        // readable 3 bytes past the last row. Padding rows are never
        // indexed; their value is irrelevant.
        in_box_(static_cast<size_t>(train.num_rows()) + 3, 1),
        n_(train.num_rows()) {
    const int m = train.num_cols();
    const int n = train.num_rows();
    lo_rank_.assign(static_cast<size_t>(m), 0);
    hi_rank_.assign(static_cast<size_t>(m), n);
    lo_bin_.assign(static_cast<size_t>(m), 0);
    hi_bin_.resize(static_cast<size_t>(m));
    // Hard {0,1} labels make every y sum integer-exact regardless of
    // accumulation order, so removed-mass sums may come straight from the
    // per-bin aggregates (O(bins) per candidate). Fractional labels fall
    // back to ordered scans that replicate the sorted kernel's exact
    // floating-point accumulation sequence.
    integral_labels_ = AllZeroOrOne(train.y_data(), n);
    bin_count_.resize(static_cast<size_t>(m));
    bin_pos_.resize(static_cast<size_t>(m));
    for (int j = 0; j < m; ++j) {
      hi_bin_[static_cast<size_t>(j)] = binned.num_bins(j) - 1;
      InitBinAggregates(binned, j, index.sorted_rows(j).data(),
                        train.y_data(), integral_labels_,
                        &bin_count_[static_cast<size_t>(j)],
                        &bin_pos_[static_cast<size_t>(j)]);
    }
  }

  // Mirrors the sorted kernel's MakeCandidate decision for decision: the
  // bound is the same order statistic, tie-swallowed cuts advance past tied
  // blocks the same way, and removed sums are the same numbers. The high
  // side is the low side's mirror image, counted down from the top: its
  // bound is the in-box row k places below the largest, and the rows above
  // it go. One histogram walk finds the bound's bin; the bins it passed are
  // exactly the removed rows outside that bin, so the count and label sum
  // need no second walk.
  Peel MakeCandidate(int dim, bool low_side, double alpha,
                     const BoxStats& in_stats) const {
    Peel peel;
    const int n = n_;
    const int k = std::max(1, static_cast<int>(std::floor(alpha * n)));
    if (k >= n) return peel;  // would empty the box

    const bool from_top = !low_side;
    EdgeRow at = RowAtEdgeRank(dim, k, from_top);
    // Rows strictly beyond the bound are cut off.
    int removed =
        at.passed + BinRowsBeyond(dim, at.bin, at.value, from_top, true);
    if (removed == 0) {
      // Ties swallowed the whole cut (so no bin was passed): move past the
      // tied block.
      const int q = BinRowsBeyond(dim, at.bin, at.value, from_top, false);
      if (q >= n) return peel;  // dimension is constant in box
      at = RowAtEdgeRank(dim, q, from_top);
      removed = q;  // no values lie strictly between the old and new bound
    }
    if (removed >= n) return peel;  // would empty the box
    double removed_pos;
    if (integral_labels_) {
      removed_pos = at.passed_mass +
                    BinMassNearEdge(dim, at.bin, removed - at.passed, from_top);
    } else {
      const int* sorted = index_.sorted_rows(dim).data();
      removed_pos =
          low_side
              ? SumFirstInBox(sorted, in_box_.data(), train_.y_data(),
                              lo_rank_[static_cast<size_t>(dim)], removed)
              : SumLastInBox(sorted, in_box_.data(), train_.y_data(),
                             hi_rank_[static_cast<size_t>(dim)], removed);
    }

    peel.dim = dim;
    peel.low_side = low_side;
    peel.bound = at.value;
    peel.removed_n = removed;
    peel.removed_pos = removed_pos;
    peel.precision_after =
        (in_stats.n_pos - removed_pos) / (in_stats.n - removed);
    return peel;
  }

  // Drops the rows the peel cuts off: only the removed window of the peeled
  // dimension's permutation is walked, and each removed row decrements one
  // histogram counter per dimension.
  void Apply(const Peel& peel, BoxStats* stats) {
    const std::vector<int>& sorted = index_.sorted_rows(peel.dim);
    const std::vector<double>& col = index_.column(peel.dim);
    if (peel.low_side) {
      const int new_lo = reds::LowerBoundRank(sorted, col, peel.bound);
      for (int pos = lo_rank_[static_cast<size_t>(peel.dim)]; pos < new_lo;
           ++pos) {
        Remove(sorted[static_cast<size_t>(pos)]);
      }
      lo_rank_[static_cast<size_t>(peel.dim)] = new_lo;
    } else {
      const int new_hi = reds::UpperBoundRank(sorted, col, peel.bound);
      for (int pos = new_hi; pos < hi_rank_[static_cast<size_t>(peel.dim)];
           ++pos) {
        Remove(sorted[static_cast<size_t>(pos)]);
      }
      hi_rank_[static_cast<size_t>(peel.dim)] = new_hi;
    }
    stats->n -= peel.removed_n;
    stats->n_pos -= peel.removed_pos;
    // Trim every dimension's window past leading/trailing holes so later
    // scans start at a live row (amortized O(N) per dimension over the
    // run), and re-anchor the histogram walks at the window's edge bins.
    for (size_t j = 0; j < bin_count_.size(); ++j) {
      const std::vector<int>& s = index_.sorted_rows(static_cast<int>(j));
      TrimWindow(s.data(), in_box_.data(), &lo_rank_[j], &hi_rank_[j]);
      if (lo_rank_[j] < hi_rank_[j]) {
        lo_bin_[j] = binned_.code(static_cast<int>(j),
                                  s[static_cast<size_t>(lo_rank_[j])]);
        hi_bin_[j] = binned_.code(static_cast<int>(j),
                                  s[static_cast<size_t>(hi_rank_[j] - 1)]);
      }
    }
  }

 private:
  void Remove(int r) {
    if (!in_box_[static_cast<size_t>(r)]) return;
    in_box_[static_cast<size_t>(r)] = 0;
    --n_;
    const double y = train_.y(r);
    for (size_t j = 0; j < bin_count_.size(); ++j) {
      const int b = binned_.code(static_cast<int>(j), r);
      --bin_count_[j][static_cast<size_t>(b)];
      bin_pos_[j][static_cast<size_t>(b)] -= y;
    }
  }

  InBoxBins Bins(int dim) const {
    const size_t d = static_cast<size_t>(dim);
    return {bin_count_[d].data(), bin_pos_[d].data(), lo_bin_[d], hi_bin_[d]};
  }

  // Permutation ranks of bin b of `dim` inside the live window: they hold
  // every in-box row of the bin.
  int SegmentBegin(int dim, int b) const {
    return std::max(binned_.bin_begin_rank(dim, b),
                    lo_rank_[static_cast<size_t>(dim)]);
  }
  int SegmentEnd(int dim, int b) const {
    return std::min(binned_.bin_begin_rank(dim, b + 1),
                    hi_rank_[static_cast<size_t>(dim)]);
  }

  // In-box rows of bin b of `dim` below v (< v when strict, else <= v).
  // The segment is value-sorted, so a full-segment masked count equals the
  // early-break walk; dispatched (util/simd.h).
  int MaskedCount(int dim, int b, double v, bool strict) const {
    const int begin = SegmentBegin(dim, b);
    return util::MaskedCountBelow(index_.column(dim).data(), in_box_.data(),
                                  index_.sorted_rows(dim).data() + begin,
                                  SegmentEnd(dim, b) - begin, v, strict);
  }

  // The in-box row `rank` places from the low edge of `dim` (ascending by
  // value, ties by row id), or from the top when `from_top`: its value, its
  // bin, and the rows and label mass of the bins between it and the edge.
  struct EdgeRow {
    double value = 0.0;
    int bin = 0;
    int passed = 0;
    double passed_mass = 0.0;
  };
  EdgeRow RowAtEdgeRank(int dim, int rank, bool from_top) const {
    EdgeRow at;
    at.bin = Bins(dim).BinAtRank(rank, from_top, &at.passed, &at.passed_mass);
    const std::vector<int>& sorted = index_.sorted_rows(dim);
    const int begin = SegmentBegin(dim, at.bin);
    const int end = SegmentEnd(dim, at.bin);
    // The bin holds more than rank - passed in-box rows; skip that many.
    int need = rank - at.passed;
    const int step = from_top ? -1 : 1;
    for (int pos = from_top ? end - 1 : begin; pos >= begin && pos < end;
         pos += step) {
      const int r = sorted[static_cast<size_t>(pos)];
      if (!in_box_[static_cast<size_t>(r)]) continue;
      if (need-- == 0) {
        at.value = index_.column(dim)[static_cast<size_t>(r)];
        return at;
      }
    }
    assert(false && "in-box rank out of range");
    return at;
  }

  // In-box rows of bin b of `dim` beyond v, a value in the bin's range:
  // below v from the low edge or above it from the top, strictly when
  // `strict`. Together with the rows of the bins between b and the edge
  // this is the full count beyond v, because every bin nearer the edge
  // lies wholly beyond v and every farther one wholly short of it.
  int BinRowsBeyond(int dim, int b, double v, bool from_top,
                    bool strict) const {
    const int rows =
        bin_count_[static_cast<size_t>(dim)][static_cast<size_t>(b)];
    const double first = binned_.bin_first(dim, b);
    const double last = binned_.bin_last(dim, b);
    if (!from_top) {
      if (strict ? last < v : last <= v) return rows;
      if (strict ? first >= v : first > v) return 0;
      return MaskedCount(dim, b, v, strict);
    }
    if (strict ? first > v : first >= v) return rows;
    if (strict ? last <= v : last < v) return 0;
    // The bin's rows not above v are the ones below it.
    return rows - MaskedCount(dim, b, v, /*strict=*/!strict);
  }

  // Label sum of the `take` in-box rows of bin b of `dim` nearest the low
  // edge, or the top when `from_top`, with take below the bin's row count:
  // a masked prefix sum of the segment, taken directly on the low side and
  // subtracted from the bin total on the high side. Only valid for
  // integral labels, where every partial sum is an exact integer, so the
  // removed mass equals the sequential sum bit for bit.
  double BinMassNearEdge(int dim, int b, int take, bool from_top) const {
    if (take == 0) return 0.0;
    const int rows =
        bin_count_[static_cast<size_t>(dim)][static_cast<size_t>(b)];
    const int begin = SegmentBegin(dim, b);
    const double low_part = util::MaskedPrefixSum(
        train_.y_data(), in_box_.data(),
        index_.sorted_rows(dim).data() + begin, SegmentEnd(dim, b) - begin,
        from_top ? rows - take : take);
    return from_top
               ? bin_pos_[static_cast<size_t>(dim)][static_cast<size_t>(b)] -
                     low_part
               : low_part;
  }

  const Dataset& train_;
  const ColumnIndex& index_;
  const BinnedIndex& binned_;
  std::vector<uint8_t> in_box_;            // by row id
  int n_ = 0;                              // rows currently in box
  bool integral_labels_ = false;           // every y is exactly 0 or 1
  std::vector<int> lo_rank_;               // [dim] first in-window perm rank
  std::vector<int> hi_rank_;               // [dim] one past last window rank
  std::vector<int> lo_bin_;                // [dim] bin of lo_rank_
  std::vector<int> hi_bin_;                // [dim] bin of hi_rank_ - 1
  std::vector<std::vector<int>> bin_count_;   // [dim][bin] in-box rows
  std::vector<std::vector<double>> bin_pos_;  // [dim][bin] in-box y sum
};

// Streamed peel state: PRIM on the quantized plane alone. The dataset
// exists only as BinnedIndex codes, the index's own code-ordered
// permutation, and the label vector -- no raw doubles, no ColumnIndex.
// Candidates treat bins as atomic value blocks (MakeBinCut): the boundary
// bin replaces the exact order statistic and bounds snap to
// bin_first/bin_last. With one distinct value per bin this reproduces the
// sorted kernel's decisions exactly (same candidate counts, same tie
// handling, same removed sums); with wider bins every cut is within the
// binning's rank error of the exact kernel's. Histogram walks and Apply
// mirror BinnedPeelState: walks start at the peeled edge, and Apply walks
// only the removed window of the peeled dimension's permutation,
// decrementing per-bin aggregates.
class CodePeelState {
 public:
  CodePeelState(const BinnedIndex& binned, const std::vector<double>& y)
      : binned_(binned),
        y_(y),
        in_box_(static_cast<size_t>(binned.num_rows()), 1),
        n_(binned.num_rows()) {
    assert(binned.has_sorted_rows());
    const int m = binned.num_cols();
    const int n = binned.num_rows();
    lo_rank_.assign(static_cast<size_t>(m), 0);
    hi_rank_.assign(static_cast<size_t>(m), n);
    lo_bin_.assign(static_cast<size_t>(m), 0);
    hi_bin_.resize(static_cast<size_t>(m));
    // As in BinnedPeelState: integral {0,1} labels make every removed-mass
    // sum integer-exact from per-bin aggregates; fractional labels fall
    // back to ordered permutation scans, which accumulate in (bin, row id)
    // order -- the sorted kernel's exact order when bins are single values.
    integral_labels_ = AllZeroOrOne(y.data(), n);
    bin_count_.resize(static_cast<size_t>(m));
    bin_pos_.resize(static_cast<size_t>(m));
    for (int j = 0; j < m; ++j) {
      hi_bin_[static_cast<size_t>(j)] = binned.num_bins(j) - 1;
      InitBinAggregates(binned, j, binned.sorted_rows(j).data(), y.data(),
                        integral_labels_, &bin_count_[static_cast<size_t>(j)],
                        &bin_pos_[static_cast<size_t>(j)]);
    }
  }

  Peel MakeCandidate(int dim, bool low_side, double alpha,
                     const BoxStats& in_stats) const {
    Peel peel;
    const int n = n_;
    const int k = std::max(1, static_cast<int>(std::floor(alpha * n)));
    if (k >= n) return peel;  // would empty the box

    const size_t d = static_cast<size_t>(dim);
    const BinCut cut = MakeBinCut(
        {bin_count_[d].data(), bin_pos_[d].data(), lo_bin_[d], hi_bin_[d]},
        n, k, low_side);
    if (cut.bin < 0) return peel;  // dimension is constant in box
    if (cut.removed >= n) return peel;  // would empty the box
    double removed_pos = cut.removed_mass;
    if (!integral_labels_) {
      const int* sorted = binned_.sorted_rows(dim).data();
      removed_pos = low_side ? SumFirstInBox(sorted, in_box_.data(), y_.data(),
                                             lo_rank_[d], cut.removed)
                             : SumLastInBox(sorted, in_box_.data(), y_.data(),
                                            hi_rank_[d], cut.removed);
    }

    peel.dim = dim;
    peel.low_side = low_side;
    peel.bound = low_side ? binned_.bin_first(dim, cut.bin)
                          : binned_.bin_last(dim, cut.bin);
    peel.bin = cut.bin;
    peel.removed_n = cut.removed;
    peel.removed_pos = removed_pos;
    peel.precision_after =
        (in_stats.n_pos - removed_pos) / (in_stats.n - cut.removed);
    return peel;
  }

  void Apply(const Peel& peel, BoxStats* stats) {
    const ColumnView<int> sorted = binned_.sorted_rows(peel.dim);
    if (peel.low_side) {
      const int new_lo = binned_.bin_begin_rank(peel.dim, peel.bin);
      for (int pos = lo_rank_[static_cast<size_t>(peel.dim)]; pos < new_lo;
           ++pos) {
        Remove(sorted[static_cast<size_t>(pos)]);
      }
      lo_rank_[static_cast<size_t>(peel.dim)] = new_lo;
    } else {
      const int new_hi = binned_.bin_begin_rank(peel.dim, peel.bin + 1);
      for (int pos = new_hi; pos < hi_rank_[static_cast<size_t>(peel.dim)];
           ++pos) {
        Remove(sorted[static_cast<size_t>(pos)]);
      }
      hi_rank_[static_cast<size_t>(peel.dim)] = new_hi;
    }
    stats->n -= peel.removed_n;
    stats->n_pos -= peel.removed_pos;
    for (size_t j = 0; j < bin_count_.size(); ++j) {
      const ColumnView<int> s = binned_.sorted_rows(static_cast<int>(j));
      TrimWindow(s.data(), in_box_.data(), &lo_rank_[j], &hi_rank_[j]);
      if (lo_rank_[j] < hi_rank_[j]) {
        lo_bin_[j] = binned_.code(static_cast<int>(j),
                                  s[static_cast<size_t>(lo_rank_[j])]);
        hi_bin_[j] = binned_.code(static_cast<int>(j),
                                  s[static_cast<size_t>(hi_rank_[j] - 1)]);
      }
    }
  }

 private:
  void Remove(int r) {
    if (!in_box_[static_cast<size_t>(r)]) return;
    in_box_[static_cast<size_t>(r)] = 0;
    --n_;
    const double y = y_[static_cast<size_t>(r)];
    for (size_t j = 0; j < bin_count_.size(); ++j) {
      const int b = binned_.code(static_cast<int>(j), r);
      --bin_count_[j][static_cast<size_t>(b)];
      bin_pos_[j][static_cast<size_t>(b)] -= y;
    }
  }

  const BinnedIndex& binned_;
  const std::vector<double>& y_;
  std::vector<uint8_t> in_box_;            // by row id
  int n_ = 0;                              // rows currently in box
  bool integral_labels_ = false;           // every y is exactly 0 or 1
  std::vector<int> lo_rank_;               // [dim] first in-window perm rank
  std::vector<int> hi_rank_;               // [dim] one past last window rank
  std::vector<int> lo_bin_;                // [dim] bin of lo_rank_
  std::vector<int> hi_bin_;                // [dim] bin of hi_rank_ - 1
  std::vector<std::vector<int>> bin_count_;   // [dim][bin] in-box rows
  std::vector<std::vector<double>> bin_pos_;  // [dim][bin] in-box y sum
};

// One pasting expansion candidate: move a bound outward to re-admit roughly
// a paste_alpha share of the current box population.
struct Paste {
  int dim = -1;
  bool low_side = true;
  double bound = 0.0;
  double precision_after = -1.0;
  double added_n = 0.0;
};

// Pasting phase (Friedman & Fisher): greedily re-expand the selected box
// while train precision does not drop. Candidate enumeration walks the
// full-data sorted permutation beyond one bound, keeping rows whose only
// violation is that bound (viol == 1); selection and accounting are
// identical to the reference implementation.
void RunPastePhase(const Dataset& train, const Dataset& val,
                   const ColumnIndex& index, const PrimConfig& config,
                   double total_train_pos, double total_val_pos,
                   PrimResult* result) {
  const int dims = train.num_cols();
  Box pasted = result->BestBox();
  BoxStats stats = ComputeBoxStats(train, pasted);
  std::vector<int> viol = CountBoundViolations(index, pasted);
  std::vector<std::pair<double, double>> outside;  // (x_j, y)

  bool improved = true;
  while (improved && stats.n > 0.0) {
    improved = false;
    Paste best_paste;
    const int grow = std::max(
        1, static_cast<int>(std::floor(config.paste_alpha * stats.n)));
    for (int j = 0; j < dims; ++j) {
      const std::vector<int>& s = index.sorted_rows(j);
      for (bool low : {true, false}) {
        const double cur = low ? pasted.lo(j) : pasted.hi(j);
        if (!std::isfinite(cur)) continue;
        // Points outside only through this one bound.
        outside.clear();
        if (low) {
          const int end = index.LowerBoundRank(j, cur);
          for (int i = 0; i < end; ++i) {
            const int r = s[static_cast<size_t>(i)];
            if (viol[static_cast<size_t>(r)] != 1) continue;
            outside.emplace_back(train.x(r, j), train.y(r));
          }
        } else {
          const int begin = index.UpperBoundRank(j, cur);
          for (int i = begin; i < index.num_rows(); ++i) {
            const int r = s[static_cast<size_t>(i)];
            if (viol[static_cast<size_t>(r)] != 1) continue;
            outside.emplace_back(train.x(r, j), train.y(r));
          }
        }
        if (outside.empty()) continue;
        std::sort(outside.begin(), outside.end());
        if (!low) std::reverse(outside.begin(), outside.end());
        const int take = std::min<int>(grow, static_cast<int>(outside.size()));
        double add_n = 0.0, add_pos = 0.0;
        for (int t = 0; t < take; ++t) {
          add_n += 1.0;
          add_pos += outside[static_cast<size_t>(t)].second;
        }
        const double new_bound = outside[static_cast<size_t>(take - 1)].first;
        const double precision_after =
            (stats.n_pos + add_pos) / (stats.n + add_n);
        if (precision_after > best_paste.precision_after) {
          best_paste = {j, low, new_bound, precision_after, add_n};
        }
      }
    }
    const double current_precision = Precision(stats);
    if (best_paste.dim >= 0 &&
        best_paste.precision_after >= current_precision &&
        best_paste.added_n > 0.0) {
      const int j = best_paste.dim;
      const std::vector<int>& s = index.sorted_rows(j);
      // Rows admitted by the moved bound lose their dimension-j violation.
      int begin, end;
      if (best_paste.low_side) {
        begin = index.LowerBoundRank(j, best_paste.bound);
        end = index.LowerBoundRank(j, pasted.lo(j));
        pasted.set_lo(j, best_paste.bound);
      } else {
        begin = index.UpperBoundRank(j, pasted.hi(j));
        end = index.UpperBoundRank(j, best_paste.bound);
        pasted.set_hi(j, best_paste.bound);
      }
      for (int i = begin; i < end; ++i) {
        --viol[static_cast<size_t>(s[static_cast<size_t>(i)])];
      }
      stats = ComputeBoxStats(train, pasted);
      improved = true;
    }
  }

  if (!(pasted == result->BestBox())) {
    result->boxes.push_back(pasted);
    const BoxStats tr = ComputeBoxStats(train, pasted);
    const BoxStats va = ComputeBoxStats(val, pasted);
    result->train_curve.push_back({Recall(tr, total_train_pos), Precision(tr)});
    result->val_curve.push_back({Recall(va, total_val_pos), Precision(va)});
    result->best_val_index = static_cast<int>(result->boxes.size()) - 1;
  }
}

}  // namespace

std::vector<Box> PrimResult::ReturnedBoxes() const {
  return std::vector<Box>(boxes.begin(),
                          boxes.begin() + best_val_index + 1);
}


PrimResult RunPrim(const Dataset& train, const Dataset& val,
                   const PrimConfig& config, const ColumnIndex* train_index,
                   const BinnedIndex* train_binned) {
  assert(train.num_cols() == val.num_cols());
  assert(train.num_rows() > 0 && val.num_rows() > 0);
  std::shared_ptr<const ColumnIndex> owned;
  if (train_index == nullptr) {
    owned = ColumnIndex::Build(train);
    train_index = owned.get();
  }
  assert(train_index->num_rows() == train.num_rows());
  assert(train_index->num_cols() == train.num_cols());

  // Validating on the training data itself with {0,1} labels: every
  // validation count and label sum equals the training one exactly, so the
  // loop mirrors the training stats (its null-val case) instead of cutting
  // the same rows a second time. Fractional labels keep the separate
  // validation walk, whose row-by-row subtraction rounds differently.
  const Dataset* peel_val = &val;
  if (&val == &train && AllZeroOrOne(train.y_data(), train.num_rows())) {
    peel_val = nullptr;
  }

  std::shared_ptr<const BinnedIndex> owned_binned;
  if (train_binned == nullptr) {
    owned_binned = BinnedIndex::Build(*train_index);
    train_binned = owned_binned.get();
  }
  assert(train_binned->num_rows() == train.num_rows());
  assert(train_binned->num_cols() == train.num_cols());
  BinnedPeelState state(train, *train_index, *train_binned);
  PrimResult result;
  {
    obs::Span span("prim.peel");
    result = RunPeelingPhase(train.num_cols(),
                             static_cast<double>(train.num_rows()),
                             train.TotalPositive(), peel_val, config, &state);
  }

  if (config.paste) {
    obs::Span span("prim.paste");
    RunPastePhase(train, val, *train_index, config, train.TotalPositive(),
                  val.TotalPositive(), &result);
  }
  return result;
}

PrimResult RunPrimStreamed(const BinnedIndex& binned,
                           const std::vector<double>& y,
                           const PrimConfig& config, const Dataset* val) {
  assert(binned.has_sorted_rows() &&
         "RunPrimStreamed needs a streamed/deserialized index with its own "
         "permutation");
  assert(static_cast<int>(y.size()) == binned.num_rows());
  assert(binned.num_rows() > 0);
  assert(val == nullptr || val->num_cols() == binned.num_cols());
  assert(val == nullptr || val->num_rows() > 0);
  double total_pos = 0.0;
  for (double v : y) total_pos += v;

  // The shared peeling loop on the quantized plane: CodePeelState is just
  // another peel-state backend, so the loop -- candidate selection,
  // validation tracking, box selection -- is the exact code the
  // materialized kernels run. Pasting needs raw training values, so it is
  // skipped.
  CodePeelState state(binned, y);
  obs::Span span("prim.peel");
  return RunPeelingPhase(binned.num_cols(),
                         static_cast<double>(binned.num_rows()), total_pos,
                         val, config, &state);
}

}  // namespace reds
