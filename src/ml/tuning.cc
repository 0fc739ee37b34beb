#include "ml/tuning.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "ml/gbt.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "ml/svm.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace reds::ml {

std::vector<int> FoldAssignment(int n, int k, uint64_t seed) {
  Rng rng(DeriveSeed(seed, 0xf01d5ULL));
  std::vector<int> perm(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
  rng.Shuffle(&perm);
  std::vector<int> fold(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    fold[static_cast<size_t>(perm[static_cast<size_t>(i)])] = i % k;
  }
  return fold;
}

namespace {

using ModelFactory = std::function<std::unique_ptr<Metamodel>()>;

// Row-id views of one CV fold: the ascending training rows and the
// held-out rows. Candidates fit through these plus the shared full-data
// indexes.
struct CvFoldRows {
  std::vector<int> train_rows;
  std::vector<int> test_rows;
};

// The fold membership is computed once per tuning run so every grid
// candidate is scored on identical folds (caret's protocol). Degenerate
// folds (empty train or test side) are dropped.
std::vector<CvFoldRows> BuildFoldRows(int n, int folds, uint64_t seed) {
  const std::vector<int> fold = FoldAssignment(n, folds, seed);
  std::vector<CvFoldRows> out;
  for (int f = 0; f < folds; ++f) {
    CvFoldRows rows;
    for (int i = 0; i < n; ++i) {
      (fold[static_cast<size_t>(i)] == f ? rows.test_rows : rows.train_rows)
          .push_back(i);
    }
    if (rows.train_rows.empty() || rows.test_rows.empty()) continue;
    out.push_back(std::move(rows));
  }
  return out;
}

// Held-out log-loss of one fitted fold model: the held-out rows are
// gathered into one block for a single PredictBlock.
double HeldOutLoss(const Metamodel& model, const Dataset& d,
                   const std::vector<int>& held_out) {
  const int m = d.num_cols();
  std::vector<double> x, y;
  x.reserve(held_out.size() * static_cast<size_t>(m));
  y.reserve(held_out.size());
  for (int r : held_out) {
    x.insert(x.end(), d.row(r), d.row(r) + m);
    y.push_back(d.y(r) > 0.5 ? 1.0 : 0.0);
  }
  std::vector<double> prob(held_out.size());
  model.PredictBlock(
      la::ConstMatrixView(x.data(), static_cast<int>(held_out.size()), m),
      prob.data());
  return LogLoss(prob, y);
}

// Mean CV log-loss of each grid cell in `cells` over `folds` (degenerate
// folds are skipped, but the mean still divides by `num_folds`). Every
// (cell, fold) candidate fits through the fold's row view over the shared
// full-data indexes, so nothing fold-sized is ever copied and each
// transient fit holds only its own working set. Each fit is one fork-join
// index writing its own slot; each cell's fold losses are then summed in
// fold order, so the doubles match the serial fold loop's bit for bit.
// Cell g's fold seeds come from DeriveSeed(seed, g).
std::vector<double> CellLosses(const std::vector<ModelFactory>& grid,
                               const std::vector<int>& cells, const Dataset& d,
                               const std::vector<CvFoldRows>& folds,
                               int num_folds, uint64_t seed,
                               const ColumnIndex* index,
                               const BinnedIndex* binned) {
  const size_t k_folds = folds.size();
  std::vector<double> fold_loss(cells.size() * k_folds);
  ParallelFor(0, static_cast<int>(fold_loss.size()), [&](int k) {
    const size_t c = static_cast<size_t>(k) / k_folds;
    const size_t f = static_cast<size_t>(k) % k_folds;
    const int g = cells[c];
    const uint64_t g_seed = DeriveSeed(seed, static_cast<uint64_t>(g));
    const std::unique_ptr<Metamodel> model = grid[static_cast<size_t>(g)]();
    model->FitOnRows(d, folds[f].train_rows,
                     DeriveSeed(g_seed, static_cast<uint64_t>(f) + 101), index,
                     binned);
    fold_loss[static_cast<size_t>(k)] =
        HeldOutLoss(*model, d, folds[f].test_rows);
  });
  std::vector<double> loss(cells.size());
  for (size_t c = 0; c < cells.size(); ++c) {
    double total = 0.0;
    for (size_t f = 0; f < k_folds; ++f) total += fold_loss[c * k_folds + f];
    loss[c] = total / num_folds;
  }
  return loss;
}

// The full-data views every fold fit shares, reusing the caller's prebuilt
// indexes when given. Building the full index here is still strictly
// smaller than k fold indexes of ~(k-1)/k rows each.
struct SharedViews {
  std::shared_ptr<const ColumnIndex> owned_index;
  std::shared_ptr<const BinnedIndex> owned_binned;
  const ColumnIndex* index = nullptr;
  const BinnedIndex* binned = nullptr;
};

SharedViews MakeSharedViews(const Dataset& d, const TuningConfig& config,
                            bool tree_family, const ColumnIndex* index,
                            const BinnedIndex* binned) {
  SharedViews views;
  views.index = index;
  views.binned = binned;
  if (!tree_family) return views;
  if (views.index == nullptr) {
    views.owned_index = ColumnIndex::Build(d);
    views.index = views.owned_index.get();
  }
  if (config.backend == SplitBackend::kHistogram && views.binned == nullptr) {
    views.owned_binned = BinnedIndex::Build(*views.index);
    views.binned = views.owned_binned.get();
  }
  return views;
}

std::unique_ptr<Metamodel> PickBest(const std::vector<ModelFactory>& grid,
                                    const Dataset& d, uint64_t seed,
                                    const TuningConfig& config,
                                    bool tree_family,
                                    const ColumnIndex* index,
                                    const BinnedIndex* binned) {
  std::vector<int> cells(grid.size());
  for (size_t g = 0; g < grid.size(); ++g) cells[g] = static_cast<int>(g);
  const SharedViews views =  // kept alive for the refit below
      MakeSharedViews(d, config, tree_family, index, binned);
  const std::vector<double> losses = CellLosses(
      grid, cells, d, BuildFoldRows(d.num_rows(), config.folds, seed),
      config.folds, seed, views.index, views.binned);
  // Argmin first-wins in cell order.
  double best_loss = std::numeric_limits<double>::infinity();
  size_t best = 0;
  for (size_t g = 0; g < grid.size(); ++g) {
    if (losses[g] < best_loss) {
      best_loss = losses[g];
      best = g;
    }
  }
  auto model = grid[best]();
  // The winner refits on all of d; passing the shared full-data views is
  // bit-identical to letting Fit build its own (they are constructed the
  // same way), so the refit matches TuningCellFit's.
  model->Fit(d, DeriveSeed(seed, 0xf17ULL), views.index, views.binned);
  return model;
}

int DefaultMtry(int m) {
  return std::max(1, static_cast<int>(std::sqrt(static_cast<double>(m))));
}

// The deterministic grid enumeration shared by TuneAndFit and the
// per-cell API (TuningGridSize/TuningCellLoss/TuningCellFit). Cell order
// is part of the contract: a sharded tuner that evaluates cells remotely
// and argmins first-wins in cell index order reproduces PickBest exactly.
std::vector<ModelFactory> BuildTuningGrid(MetamodelKind kind, int m,
                                          const TuningConfig& config) {
  const bool full = config.budget == TuningBudget::kFull;
  std::vector<ModelFactory> grid;
  switch (kind) {
    case MetamodelKind::kRandomForest: {
      std::vector<int> mtry_grid = {DefaultMtry(m), std::max(1, m / 3),
                                    std::max(1, 2 * m / 3)};
      std::sort(mtry_grid.begin(), mtry_grid.end());
      mtry_grid.erase(std::unique(mtry_grid.begin(), mtry_grid.end()),
                      mtry_grid.end());
      for (int mtry : mtry_grid) {
        RandomForestConfig c;
        c.num_trees = full ? 500 : 100;
        c.mtry = mtry;
        c.backend = config.backend;
        c.growth = config.growth;
        c.max_leaves = config.max_leaves;
        grid.push_back([c] { return std::make_unique<RandomForest>(c); });
      }
      break;
    }
    case MetamodelKind::kGbt: {
      const std::vector<int> depths = full ? std::vector<int>{2, 4, 6}
                                           : std::vector<int>{2, 4};
      const std::vector<int> rounds = full ? std::vector<int>{50, 150}
                                           : std::vector<int>{50, 100};
      const std::vector<double> etas = full ? std::vector<double>{0.1, 0.3}
                                            : std::vector<double>{0.3};
      for (int depth : depths) {
        for (int nr : rounds) {
          for (double eta : etas) {
            GbtConfig c;
            c.max_depth = depth;
            c.num_rounds = nr;
            c.eta = eta;
            c.backend = config.backend;
            c.growth = config.growth;
            c.max_leaves = config.max_leaves;
            grid.push_back(
                [c] { return std::make_unique<GradientBoostedTrees>(c); });
          }
        }
      }
      break;
    }
    case MetamodelKind::kSvm: {
      const std::vector<double> cs =
          full ? std::vector<double>{0.25, 1.0, 4.0, 16.0}
               : std::vector<double>{1.0, 4.0};
      for (double c_val : cs) {
        SvmConfig c;
        c.c = c_val;
        grid.push_back([c] { return std::make_unique<SvmRbf>(c); });
      }
      break;
    }
  }
  return grid;
}

}  // namespace

std::unique_ptr<Metamodel> FitDefault(MetamodelKind kind, const Dataset& d,
                                      uint64_t seed, TuningBudget budget,
                                      const ColumnIndex* index,
                                      const BinnedIndex* binned,
                                      SplitBackend backend,
                                      GrowthPolicy growth, int max_leaves) {
  const bool full = budget == TuningBudget::kFull;
  switch (kind) {
    case MetamodelKind::kRandomForest: {
      RandomForestConfig config;
      config.num_trees = full ? 500 : 100;
      config.backend = backend;
      config.growth = growth;
      config.max_leaves = max_leaves;
      auto model = std::make_unique<RandomForest>(config);
      model->Fit(d, seed, index, binned);
      return model;
    }
    case MetamodelKind::kGbt: {
      GbtConfig config;
      config.num_rounds = full ? 150 : 80;
      config.max_depth = 4;
      config.eta = 0.3;
      config.backend = backend;
      config.growth = growth;
      config.max_leaves = max_leaves;
      auto model = std::make_unique<GradientBoostedTrees>(config);
      model->Fit(d, seed, index, binned);
      return model;
    }
    case MetamodelKind::kSvm: {
      SvmConfig config;
      auto model = std::make_unique<SvmRbf>(config);
      model->Fit(d, seed);
      return model;
    }
  }
  return nullptr;
}

std::unique_ptr<Metamodel> TuneAndFit(MetamodelKind kind, const Dataset& d,
                                      uint64_t seed,
                                      const TuningConfig& config,
                                      const ColumnIndex* index,
                                      const BinnedIndex* binned) {
  obs::Span span("metamodel.tune");
  const std::vector<ModelFactory> grid =
      BuildTuningGrid(kind, d.num_cols(), config);
  return PickBest(grid, d, seed, config, kind != MetamodelKind::kSvm, index,
                  binned);
}

int TuningGridSize(MetamodelKind kind, int num_features,
                   const TuningConfig& config) {
  return static_cast<int>(BuildTuningGrid(kind, num_features, config).size());
}

double TuningCellLoss(MetamodelKind kind, int cell, const Dataset& d,
                      uint64_t seed, const TuningConfig& config,
                      const ColumnIndex* index, const BinnedIndex* binned) {
  const std::vector<ModelFactory> grid =
      BuildTuningGrid(kind, d.num_cols(), config);
  const SharedViews views = MakeSharedViews(
      d, config, kind != MetamodelKind::kSvm, index, binned);
  // Same per-cell seed stream and fold-order sum as PickBest, so a cell's
  // loss is the same whether it is evaluated here (a shard worker) or
  // inline.
  return CellLosses(grid, {cell}, d,
                    BuildFoldRows(d.num_rows(), config.folds, seed),
                    config.folds, seed, views.index, views.binned)
      .front();
}

std::unique_ptr<Metamodel> TuningCellModel(MetamodelKind kind, int cell,
                                           int num_features,
                                           const TuningConfig& config) {
  return BuildTuningGrid(kind, num_features, config)[static_cast<size_t>(
      cell)]();
}

std::unique_ptr<Metamodel> TuningCellFit(MetamodelKind kind, int cell,
                                         const Dataset& d, uint64_t seed,
                                         const TuningConfig& config,
                                         const ColumnIndex* index,
                                         const BinnedIndex* binned) {
  auto model = TuningCellModel(kind, cell, d.num_cols(), config);
  model->Fit(d, DeriveSeed(seed, 0xf17ULL), index, binned);
  return model;
}

std::unique_ptr<Metamodel> FitMetamodel(MetamodelKind kind, const Dataset& d,
                                        uint64_t seed, bool tune,
                                        TuningBudget budget,
                                        const ColumnIndex* index,
                                        const BinnedIndex* binned,
                                        SplitBackend backend,
                                        GrowthPolicy growth, int max_leaves) {
  if (tune) {
    TuningConfig config;
    config.budget = budget;
    config.backend = backend;
    config.growth = growth;
    config.max_leaves = max_leaves;
    return TuneAndFit(kind, d, seed, config, index, binned);
  }
  return FitDefault(kind, d, seed, budget, index, binned, backend, growth,
                    max_leaves);
}

}  // namespace reds::ml
