#include "core/column_index.h"

#include <algorithm>
#include <limits>

namespace reds {

std::shared_ptr<const ColumnIndex> ColumnIndex::Build(const Dataset& d) {
  auto index = std::shared_ptr<ColumnIndex>(new ColumnIndex());
  const int n = d.num_rows();
  const int m = d.num_cols();
  index->num_rows_ = n;
  index->num_cols_ = m;
  index->columns_.resize(static_cast<size_t>(m));
  index->sorted_.resize(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    std::vector<double>& col = index->columns_[static_cast<size_t>(j)];
    col.resize(static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) col[static_cast<size_t>(r)] = d.x(r, j);

    std::vector<int>& order = index->sorted_[static_cast<size_t>(j)];
    order.resize(static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) order[static_cast<size_t>(r)] = r;
    std::sort(order.begin(), order.end(), [&col](int a, int b) {
      const double va = col[static_cast<size_t>(a)];
      const double vb = col[static_cast<size_t>(b)];
      return va < vb || (va == vb && a < b);
    });
  }
  return index;
}

std::shared_ptr<const ColumnIndex> ColumnIndex::BuildBootstrap(
    const ColumnIndex& base, const std::vector<int>& rows,
    const std::vector<int>& columns) {
  auto index = std::shared_ptr<ColumnIndex>(new ColumnIndex());
  const int n = static_cast<int>(rows.size());
  const int m = static_cast<int>(columns.size());
  index->num_rows_ = n;
  index->num_cols_ = m;
  index->columns_.resize(static_cast<size_t>(m));
  index->sorted_.resize(static_cast<size_t>(m));

  const size_t base_rows = static_cast<size_t>(base.num_rows());
  std::vector<int> run_of(base_rows);     // [training row] value run number
  std::vector<int> slot(base_rows + 1);  // [run] next output position
  for (int j = 0; j < m; ++j) {
    const int c = columns[static_cast<size_t>(j)];
    const std::vector<double>& base_col = base.column(c);
    const std::vector<int>& base_order = base.sorted_rows(c);
    std::vector<double>& col = index->columns_[static_cast<size_t>(j)];
    col.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      col[static_cast<size_t>(i)] =
          base_col[static_cast<size_t>(rows[static_cast<size_t>(i)])];
    }
    // Number the runs of equal values along base's order: Build's
    // comparator orders runs by value and ties every row of a run.
    int runs = 0;
    if (base_rows > 0) {
      double prev = base_col[static_cast<size_t>(base_order[0])];
      for (size_t k = 0; k < base_rows; ++k) {
        const size_t r = static_cast<size_t>(base_order[k]);
        runs += base_col[r] != prev ? 1 : 0;
        prev = base_col[r];
        run_of[r] = runs;
      }
      ++runs;
    }
    // Stable counting sort of the bootstrap positions by run: runs in
    // value order, positions ascending within a run -- Build's (value,
    // bootstrap row id) order.
    std::fill(slot.begin(), slot.begin() + runs + 1, 0);
    for (const int r : rows) {
      ++slot[static_cast<size_t>(run_of[static_cast<size_t>(r)]) + 1];
    }
    for (int k = 0; k < runs; ++k) {
      slot[static_cast<size_t>(k) + 1] += slot[static_cast<size_t>(k)];
    }
    std::vector<int>& order = index->sorted_[static_cast<size_t>(j)];
    order.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      const size_t run = static_cast<size_t>(
          run_of[static_cast<size_t>(rows[static_cast<size_t>(i)])]);
      order[static_cast<size_t>(slot[run]++)] = i;
    }
  }
  return index;
}

int LowerBoundRank(const std::vector<int>& sorted_rows,
                   const std::vector<double>& column, double v) {
  const auto it = std::partition_point(
      sorted_rows.begin(), sorted_rows.end(),
      [&](int r) { return column[static_cast<size_t>(r)] < v; });
  return static_cast<int>(it - sorted_rows.begin());
}

int UpperBoundRank(const std::vector<int>& sorted_rows,
                   const std::vector<double>& column, double v) {
  const auto it = std::partition_point(
      sorted_rows.begin(), sorted_rows.end(),
      [&](int r) { return column[static_cast<size_t>(r)] <= v; });
  return static_cast<int>(it - sorted_rows.begin());
}

int ColumnIndex::LowerBoundRank(int j, double v) const {
  return reds::LowerBoundRank(sorted_rows(j), column(j), v);
}

int ColumnIndex::UpperBoundRank(int j, double v) const {
  return reds::UpperBoundRank(sorted_rows(j), column(j), v);
}

std::vector<int> CountBoundViolations(const ColumnIndex& index,
                                      const Box& box) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const int n = index.num_rows();
  std::vector<int> viol(static_cast<size_t>(n), 0);
  for (int j = 0; j < index.num_cols(); ++j) {
    const double lo = box.lo(j);
    const double hi = box.hi(j);
    if (lo == -kInf && hi == kInf) continue;
    const std::vector<double>& col = index.column(j);
    for (int r = 0; r < n; ++r) {
      const double x = col[static_cast<size_t>(r)];
      if (x < lo || x > hi) ++viol[static_cast<size_t>(r)];
    }
  }
  return viol;
}

}  // namespace reds
