// Test-only oracle for k-fold CV grid tuning, kept as the straightforward
// materialized plan: every fold's training rows are copied into their own
// Dataset (SubsetRows) and indexed once, every grid cell fits on those
// copies on its own in a serial loop (no staged scoring), and the winner
// refits on all of d. The
// library's TuneAndFit fits through row views over one shared full-data
// index instead and must pick the same cell and return the same model
// wherever the fold views are exact (presorted always; histogram under
// exact packing). Its residency grows with k fold copies -- the tuning
// memory smoke's negative control.
#ifndef REDS_TESTS_REFERENCE_TUNING_H_
#define REDS_TESTS_REFERENCE_TUNING_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/binned_index.h"
#include "core/column_index.h"
#include "core/dataset.h"
#include "la/matrix.h"
#include "ml/metrics.h"
#include "ml/tuning.h"
#include "util/rng.h"

namespace reds::reference {

/// Mean CV log-loss of every grid cell, each fitted on its own on every
/// materialized fold, in cell order.
inline std::vector<double> CellLossesMaterialized(
    ml::MetamodelKind kind, const Dataset& d, uint64_t seed,
    const ml::TuningConfig& config = {}) {
  struct Fold {
    Dataset train;
    std::vector<int> test_rows;
    std::shared_ptr<const ColumnIndex> index;
    std::shared_ptr<const BinnedIndex> binned;
  };
  const bool tree_family = kind != ml::MetamodelKind::kSvm;
  const std::vector<int> fold_of = ml::FoldAssignment(d.num_rows(),
                                                      config.folds, seed);
  std::vector<Fold> folds;
  for (int f = 0; f < config.folds; ++f) {
    std::vector<int> train_rows, test_rows;
    for (int r = 0; r < d.num_rows(); ++r) {
      (fold_of[static_cast<size_t>(r)] == f ? test_rows : train_rows)
          .push_back(r);
    }
    if (train_rows.empty() || test_rows.empty()) continue;
    Fold fold{d.SubsetRows(train_rows), std::move(test_rows), nullptr,
              nullptr};
    if (tree_family) {
      fold.index = ColumnIndex::Build(fold.train);
      if (config.backend == ml::SplitBackend::kHistogram) {
        fold.binned = BinnedIndex::Build(*fold.index);
      }
    }
    folds.push_back(std::move(fold));
  }

  const int m = d.num_cols();
  const int cells = ml::TuningGridSize(kind, m, config);
  std::vector<double> losses;
  for (int g = 0; g < cells; ++g) {
    const uint64_t g_seed = DeriveSeed(seed, static_cast<uint64_t>(g));
    double total = 0.0;
    for (size_t f = 0; f < folds.size(); ++f) {
      const auto model = ml::TuningCellModel(kind, g, m, config);
      model->Fit(folds[f].train, DeriveSeed(g_seed, f + 101),
                 folds[f].index.get(), folds[f].binned.get());
      // Held-out log-loss, predicted as one gathered block.
      const std::vector<int>& held_out = folds[f].test_rows;
      std::vector<double> x, y, prob(held_out.size());
      for (int r : held_out) {
        x.insert(x.end(), d.row(r), d.row(r) + m);
        y.push_back(d.y(r) > 0.5 ? 1.0 : 0.0);
      }
      model->PredictBlock(
          la::ConstMatrixView(x.data(), static_cast<int>(held_out.size()), m),
          prob.data());
      total += ml::LogLoss(prob, y);
    }
    losses.push_back(total / config.folds);
  }
  return losses;
}

/// TuneAndFit with every CV fold materialized.
inline std::unique_ptr<ml::Metamodel> TuneAndFitMaterialized(
    ml::MetamodelKind kind, const Dataset& d, uint64_t seed,
    const ml::TuningConfig& config = {}) {
  const std::vector<double> losses =
      CellLossesMaterialized(kind, d, seed, config);
  double best_loss = std::numeric_limits<double>::infinity();
  int best = 0;
  for (size_t g = 0; g < losses.size(); ++g) {
    if (losses[g] < best_loss) {  // first-wins in cell order
      best_loss = losses[g];
      best = static_cast<int>(g);
    }
  }
  return ml::TuningCellFit(kind, best, d, seed, config);
}

}  // namespace reds::reference

#endif  // REDS_TESTS_REFERENCE_TUNING_H_
