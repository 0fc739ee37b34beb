// Test-only PRIM oracles. RunPrimReference is the original scalar
// implementation: every peel candidate rescans the in-box rows, every
// pasting candidate rescans the whole training set. RunPrimSorted peels
// through per-column sorted views of the in-box rows, compacted through a
// bitmask on every peel, inside the library's own peeling loop. The
// library's binned kernel (RunPrim) and streamed kernel (RunPrimStreamed,
// on one-value-per-bin data) must reproduce both bit for bit on {0,1}
// labels; the sorted oracle also fixes the accumulation order the binned
// kernel keeps for fractional labels.
#ifndef REDS_TESTS_REFERENCE_PRIM_H_
#define REDS_TESTS_REFERENCE_PRIM_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/column_index.h"
#include "core/prim.h"
#include "core/prim_loop.h"

namespace reds::reference {

// Per-dimension sorted views of the in-box training points. sorted_[j]
// holds exactly the rows currently inside the box, ascending by column j
// (ties by row id, inherited from the ColumnIndex permutation).
class SortedPeelState {
 public:
  SortedPeelState(const Dataset& train, const ColumnIndex& index)
      : train_(train),
        index_(index),
        in_box_(static_cast<size_t>(train.num_rows()), 1) {
    sorted_.reserve(static_cast<size_t>(train.num_cols()));
    for (int j = 0; j < train.num_cols(); ++j) {
      sorted_.push_back(index.sorted_rows(j));
    }
  }

  // Builds the low- or high-side candidate peel for one dimension, cutting
  // off roughly an alpha share of the in-box train points. Returns dim = -1
  // when no valid cut exists (e.g. all values equal). The bound is the
  // (k+1)-th order statistic, points equal to the bound stay inside, and a
  // cut swallowed by ties moves past the tied block.
  Peel MakeCandidate(int dim, bool low_side, double alpha,
                     const BoxStats& in_stats) const {
    Peel peel;
    const std::vector<int>& s = sorted_[static_cast<size_t>(dim)];
    const std::vector<double>& col = index_.column(dim);
    const int n = static_cast<int>(s.size());
    const int k = std::max(1, static_cast<int>(std::floor(alpha * n)));
    if (k >= n) return peel;  // would empty the box

    double bound;
    double removed_n = 0.0;
    double removed_pos = 0.0;
    if (low_side) {
      bound = col[static_cast<size_t>(s[static_cast<size_t>(k)])];
      // Points removed: the prefix with value < bound.
      int p = LowerBoundRank(s, col, bound);
      if (p == 0) {
        // Ties swallowed the whole cut: move past the tied block.
        const int q = UpperBoundRank(s, col, bound);
        if (q >= n) return peel;  // dimension is constant in box
        bound = col[static_cast<size_t>(s[static_cast<size_t>(q)])];
        p = q;  // no values lie strictly between the old and new bound
      }
      removed_n = p;
      for (int i = 0; i < p; ++i) {
        removed_pos += train_.y(s[static_cast<size_t>(i)]);
      }
    } else {
      bound = col[static_cast<size_t>(s[static_cast<size_t>(n - 1 - k)])];
      // Points removed: the suffix with value > bound.
      int q = UpperBoundRank(s, col, bound);
      if (q >= n) {
        const int p = LowerBoundRank(s, col, bound);
        if (p == 0) return peel;  // dimension is constant in box
        bound = col[static_cast<size_t>(s[static_cast<size_t>(p - 1)])];
        q = p;  // suffix > new bound starts where values >= old bound began
      }
      removed_n = n - q;
      for (int i = q; i < n; ++i) {
        removed_pos += train_.y(s[static_cast<size_t>(i)]);
      }
    }
    if (removed_n >= n) return peel;  // would empty the box

    peel.dim = dim;
    peel.low_side = low_side;
    peel.bound = bound;
    peel.removed_n = removed_n;
    peel.removed_pos = removed_pos;
    peel.precision_after =
        (in_stats.n_pos - removed_pos) / (in_stats.n - removed_n);
    return peel;
  }

  // Drops the rows violating the peel, updating `stats`. The peeled
  // dimension loses a prefix/suffix; every other dimension is compacted
  // through the bitmask, so all views stay exact in-box row sets.
  void Apply(const Peel& peel, BoxStats* stats) {
    std::vector<int>& s = sorted_[static_cast<size_t>(peel.dim)];
    const std::vector<double>& col = index_.column(peel.dim);
    const int n = static_cast<int>(s.size());
    if (peel.low_side) {
      const int p = LowerBoundRank(s, col, peel.bound);
      for (int i = 0; i < p; ++i) {
        in_box_[static_cast<size_t>(s[static_cast<size_t>(i)])] = 0;
      }
      s.erase(s.begin(), s.begin() + p);
    } else {
      const int q = UpperBoundRank(s, col, peel.bound);
      for (int i = q; i < n; ++i) {
        in_box_[static_cast<size_t>(s[static_cast<size_t>(i)])] = 0;
      }
      s.resize(static_cast<size_t>(q));
    }
    stats->n -= peel.removed_n;
    stats->n_pos -= peel.removed_pos;
    for (int j = 0; j < static_cast<int>(sorted_.size()); ++j) {
      if (j == peel.dim) continue;
      Compact(&sorted_[static_cast<size_t>(j)]);
    }
  }

 private:
  void Compact(std::vector<int>* s) const {
    size_t kept = 0;
    for (size_t i = 0; i < s->size(); ++i) {
      const int r = (*s)[i];
      if (in_box_[static_cast<size_t>(r)]) (*s)[kept++] = r;
    }
    s->resize(kept);
  }

  const Dataset& train_;
  const ColumnIndex& index_;
  std::vector<std::vector<int>> sorted_;  // [dim] -> in-box rows by value
  std::vector<uint8_t> in_box_;           // by row id
};

/// Pasting phase (Friedman & Fisher) by full rescans: greedily re-expand
/// the selected box while train precision does not drop, each candidate
/// gathering the rows outside the box through that one bound only.
inline void PastePhaseReference(const Dataset& train, const Dataset& val,
                                const PrimConfig& config,
                                PrimResult* result) {
  struct Paste {
    int dim = -1;
    bool low_side = true;
    double bound = 0.0;
    double precision_after = -1.0;
    double added_n = 0.0;
  };
  const int dims = train.num_cols();
  Box pasted = result->BestBox();
  BoxStats stats = ComputeBoxStats(train, pasted);
  bool improved = true;
  while (improved && stats.n > 0.0) {
    improved = false;
    Paste best_paste;
    const int grow = std::max(
        1, static_cast<int>(std::floor(config.paste_alpha * stats.n)));
    for (int j = 0; j < dims; ++j) {
      for (bool low : {true, false}) {
        const double cur = low ? pasted.lo(j) : pasted.hi(j);
        if (!std::isfinite(cur)) continue;
        // Points outside only through this one bound.
        std::vector<std::pair<double, double>> outside;  // (x_j, y)
        for (int r = 0; r < train.num_rows(); ++r) {
          const double* x = train.row(r);
          bool inside_others = true;
          for (int jj = 0; jj < dims && inside_others; ++jj) {
            if (jj == j) continue;
            inside_others = x[jj] >= pasted.lo(jj) && x[jj] <= pasted.hi(jj);
          }
          if (!inside_others) continue;
          if (low ? x[j] < cur : x[j] > cur) {
            outside.emplace_back(x[j], train.y(r));
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
      if (best_paste.low_side) {
        pasted.set_lo(best_paste.dim, best_paste.bound);
      } else {
        pasted.set_hi(best_paste.dim, best_paste.bound);
      }
      stats = ComputeBoxStats(train, pasted);
      improved = true;
    }
  }
  if (!(pasted == result->BestBox())) {
    result->boxes.push_back(pasted);
    const BoxStats tr = ComputeBoxStats(train, pasted);
    const BoxStats va = ComputeBoxStats(val, pasted);
    result->train_curve.push_back(
        {Recall(tr, train.TotalPositive()), Precision(tr)});
    result->val_curve.push_back(
        {Recall(va, val.TotalPositive()), Precision(va)});
    result->best_val_index = static_cast<int>(result->boxes.size()) - 1;
  }
}

/// PRIM through sorted in-box views (SortedPeelState) in the library's
/// peeling loop, then the reference pasting phase. Like RunPrim, validating
/// on the training data itself with {0,1} labels mirrors the training
/// stats instead of re-cutting the same rows.
inline PrimResult RunPrimSorted(const Dataset& train, const Dataset& val,
                                const PrimConfig& config,
                                const ColumnIndex* train_index = nullptr) {
  assert(train.num_cols() == val.num_cols());
  assert(train.num_rows() > 0 && val.num_rows() > 0);
  std::shared_ptr<const ColumnIndex> owned;
  if (train_index == nullptr) {
    owned = ColumnIndex::Build(train);
    train_index = owned.get();
  }
  const Dataset* peel_val = &val;
  if (&val == &train &&
      std::all_of(train.y_data(), train.y_data() + train.num_rows(),
                  [](double y) { return y == 0.0 || y == 1.0; })) {
    peel_val = nullptr;
  }
  SortedPeelState state(train, *train_index);
  PrimResult result = RunPeelingPhase(
      train.num_cols(), static_cast<double>(train.num_rows()),
      train.TotalPositive(), peel_val, config, &state);
  if (config.paste) PastePhaseReference(train, val, config, &result);
  return result;
}

/// The original scalar PRIM: every candidate gathers and partially sorts
/// the in-box column (nth_element), every peel rescans the in-box rows,
/// and validation rows are cut separately even when val is train.
inline PrimResult RunPrimReference(const Dataset& train, const Dataset& val,
                                   const PrimConfig& config) {
  assert(train.num_cols() == val.num_cols());
  assert(train.num_rows() > 0 && val.num_rows() > 0);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const int dims = train.num_cols();
  const double total_train_pos = train.TotalPositive();
  const double total_val_pos = val.TotalPositive();

  // Builds the low- or high-side candidate peel for one dimension; dim = -1
  // when no valid cut exists.
  auto make_candidate = [&](const std::vector<int>& in_rows,
                            const BoxStats& in_stats, int dim, bool low_side,
                            std::vector<double>* vals) {
    Peel peel;
    const int n = static_cast<int>(in_rows.size());
    const int k = std::max(1, static_cast<int>(std::floor(config.alpha * n)));
    if (k >= n) return peel;  // would empty the box
    vals->clear();
    for (int r : in_rows) vals->push_back(train.x(r, dim));
    double bound;
    if (low_side) {
      std::nth_element(vals->begin(), vals->begin() + k, vals->end());
      bound = (*vals)[static_cast<size_t>(k)];  // (k+1)-th smallest
    } else {
      std::nth_element(vals->begin(), vals->begin() + (n - 1 - k),
                       vals->end());
      bound = (*vals)[static_cast<size_t>(n - 1 - k)];  // (k+1)-th largest
    }
    // Count what the cut removes; points equal to the bound stay inside.
    auto count_removed = [&](double b) {
      double rn = 0.0, rp = 0.0;
      for (int r : in_rows) {
        const double x = train.x(r, dim);
        if (low_side ? x < b : x > b) {
          rn += 1.0;
          rp += train.y(r);
        }
      }
      peel.removed_n = rn;
      peel.removed_pos = rp;
    };
    count_removed(bound);
    if (peel.removed_n == 0.0) {
      // Ties swallowed the whole cut: move the bound to the next distinct
      // value past the tied block.
      double next = low_side ? kInf : -kInf;
      for (double x : *vals) {
        if (low_side ? (x > bound && x < next) : (x < bound && x > next)) {
          next = x;
        }
      }
      bound = next;
      if (!std::isfinite(bound)) return peel;  // dimension is constant in box
      count_removed(bound);
    }
    if (peel.removed_n >= n) return peel;  // would empty the box
    peel.dim = dim;
    peel.low_side = low_side;
    peel.bound = bound;
    peel.precision_after =
        (in_stats.n_pos - peel.removed_pos) / (in_stats.n - peel.removed_n);
    return peel;
  };
  // Drops the rows of `d` the peel cuts off, updating `stats`.
  auto apply_peel = [](const Dataset& d, const Peel& peel,
                       std::vector<int>* rows, BoxStats* stats) {
    size_t kept = 0;
    for (size_t i = 0; i < rows->size(); ++i) {
      const int r = (*rows)[i];
      const double x = d.x(r, peel.dim);
      if (peel.low_side ? x < peel.bound : x > peel.bound) {
        stats->n -= 1.0;
        stats->n_pos -= d.y(r);
      } else {
        (*rows)[kept++] = r;
      }
    }
    rows->resize(kept);
  };

  PrimResult result;
  Box box = Box::Unbounded(dims);
  std::vector<int> train_rows(static_cast<size_t>(train.num_rows()));
  std::vector<int> val_rows(static_cast<size_t>(val.num_rows()));
  for (int i = 0; i < train.num_rows(); ++i) {
    train_rows[static_cast<size_t>(i)] = i;
  }
  for (int i = 0; i < val.num_rows(); ++i) {
    val_rows[static_cast<size_t>(i)] = i;
  }
  BoxStats train_stats{static_cast<double>(train.num_rows()), total_train_pos};
  BoxStats val_stats{static_cast<double>(val.num_rows()), total_val_pos};
  auto record = [&]() {
    result.boxes.push_back(box);
    result.train_curve.push_back(
        {Recall(train_stats, total_train_pos), Precision(train_stats)});
    result.val_curve.push_back(
        {Recall(val_stats, total_val_pos), Precision(val_stats)});
  };
  record();

  std::vector<double> scratch;
  while (train_stats.n >= config.min_points &&
         val_stats.n >= config.min_points) {
    Peel best;
    for (int j = 0; j < dims; ++j) {
      for (bool low : {true, false}) {
        const Peel cand =
            make_candidate(train_rows, train_stats, j, low, &scratch);
        if (cand.dim < 0) continue;
        // Highest precision wins; break ties patiently (remove fewer points).
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
    apply_peel(train, best, &train_rows, &train_stats);
    apply_peel(val, best, &val_rows, &val_stats);
    if (train_stats.n == 0.0 || val_stats.n == 0.0) break;
    record();
  }

  // Select the box with the highest validation precision; first occurrence
  // (the largest box) wins ties, favoring recall.
  double best_precision = -1.0;
  for (size_t i = 0; i < result.val_curve.size(); ++i) {
    if (result.val_curve[i].precision > best_precision) {
      best_precision = result.val_curve[i].precision;
      result.best_val_index = static_cast<int>(i);
    }
  }
  if (config.paste) PastePhaseReference(train, val, config, &result);
  return result;
}

}  // namespace reds::reference

#endif  // REDS_TESTS_REFERENCE_PRIM_H_
