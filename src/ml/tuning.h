// k-fold cross-validated grid tuning for the metamodels, mimicking the
// paper's use of caret's default hyperparameter optimization (Section 8.4.3)
// at laptop scale. Folds -- and the per-fold columnar/binned views the tree
// learners scan -- are built once per tuning run and shared by the whole
// grid, caret-style, instead of being re-derived per grid point.
#ifndef REDS_ML_TUNING_H_
#define REDS_ML_TUNING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/binned_index.h"
#include "core/column_index.h"
#include "core/dataset.h"
#include "ml/histogram.h"
#include "ml/model.h"

namespace reds::ml {

/// Grid sizes for tuning: kQuick shrinks grids and ensemble sizes so the
/// default bench runs stay fast; kFull approximates the paper's setting.
enum class TuningBudget { kQuick, kFull };

struct TuningConfig {
  TuningBudget budget = TuningBudget::kQuick;
  int folds = 5;
  /// Split-search kernel every tree candidate in the grid runs on.
  SplitBackend backend = SplitBackend::kPresorted;
  /// Tree growth order for the tree families (see ml/histogram.h); applied
  /// to every grid candidate and to the final refit.
  GrowthPolicy growth = GrowthPolicy::kDepthWise;
  int max_leaves = 0;  // leaf-wise cap per tree; 0 = unlimited
};

/// Splits rows into k folds (round-robin over a shuffled permutation) and
/// returns fold ids per row.
std::vector<int> FoldAssignment(int n, int k, uint64_t seed);

/// Tunes the given metamodel family by grid search with k-fold CV on
/// log-loss (span metamodel.tune.cv), then refits the winning configuration
/// on all of d (metamodel.tune.refit). Every grid candidate is evaluated on
/// the same folds, scored in stages as TuningCellLosses does, fitting
/// through per-fold row views over one shared full-data index (prebuilt
/// `index`/`binned` of d are reused when given), so tuning residency stays
/// O(1 fold) whatever k is and no fold's training matrix is ever copied.
std::unique_ptr<Metamodel> TuneAndFit(MetamodelKind kind, const Dataset& d,
                                      uint64_t seed,
                                      const TuningConfig& config = {},
                                      const ColumnIndex* index = nullptr,
                                      const BinnedIndex* binned = nullptr);

/// Cell-level view of TuneAndFit's hyperparameter grid, for sharding the
/// CV search across workers. The grid enumeration is deterministic in
/// (kind, num_features, config) with a contractual cell order, so a
/// coordinator that shards cell indices, collects per-cell losses, and
/// argmins first-wins in cell order picks exactly TuneAndFit's winner.
int TuningGridSize(MetamodelKind kind, int num_features,
                   const TuningConfig& config);

/// Unfitted model of grid cell `cell`: the configuration TuningCellLosses
/// scores and TuningCellFit refits.
std::unique_ptr<Metamodel> TuningCellModel(MetamodelKind kind, int cell,
                                           int num_features,
                                           const TuningConfig& config);

/// Mean CV log-loss of each grid cell in `cells`, with the same folds
/// (seed-derived) and per-cell seed stream as TuneAndFit. The staged-scoring
/// contract: GBT cells that differ only in num_rounds (their fits draw no
/// randomness) are scored off one fit per fold, of the longest such cell in
/// `cells`, through its first num_rounds trees -- caret's sub-model trick,
/// xgboost's iteration_range. Trees are added in order for every row, so
/// each cell's loss is the same double whichever cells it is scored with
/// (TuningCellLosses(kind, {cell}, ...) fits it on its own): evaluating a
/// cell here (e.g. on a shard worker) or inline gives the same double.
/// TuneAndFit scores the whole grid this way. Prebuilt full-data indexes of
/// d are reused when given.
std::vector<double> TuningCellLosses(MetamodelKind kind,
                                     const std::vector<int>& cells,
                                     const Dataset& d, uint64_t seed,
                                     const TuningConfig& config,
                                     const ColumnIndex* index = nullptr,
                                     const BinnedIndex* binned = nullptr);

/// Refits grid cell `cell`'s configuration on all of d with TuneAndFit's
/// refit seed stream: TuningCellFit(kind, winner, ...) reproduces the model
/// TuneAndFit returns, bit for bit.
std::unique_ptr<Metamodel> TuningCellFit(MetamodelKind kind, int cell,
                                         const Dataset& d, uint64_t seed,
                                         const TuningConfig& config,
                                         const ColumnIndex* index = nullptr,
                                         const BinnedIndex* binned = nullptr);

/// Fits the family with library defaults (no tuning). Prebuilt indexes of d
/// (e.g. the engine's shared per-dataset caches) feed the tree learners'
/// presorted/histogram split search; when null they build their own.
std::unique_ptr<Metamodel> FitDefault(MetamodelKind kind, const Dataset& d,
                                      uint64_t seed,
                                      TuningBudget budget = TuningBudget::kQuick,
                                      const ColumnIndex* index = nullptr,
                                      const BinnedIndex* binned = nullptr,
                                      SplitBackend backend =
                                          SplitBackend::kPresorted,
                                      GrowthPolicy growth =
                                          GrowthPolicy::kDepthWise,
                                      int max_leaves = 0);

/// TuneAndFit when `tune`, else FitDefault: the single dispatch both the
/// inline REDS path and the engine's metamodel cache use, so cached and
/// uncached fits cannot drift apart. `index`/`binned` feed the untuned fit
/// and the tuned path's streamed fold views alike.
std::unique_ptr<Metamodel> FitMetamodel(MetamodelKind kind, const Dataset& d,
                                        uint64_t seed, bool tune,
                                        TuningBudget budget,
                                        const ColumnIndex* index = nullptr,
                                        const BinnedIndex* binned = nullptr,
                                        SplitBackend backend =
                                            SplitBackend::kPresorted,
                                        GrowthPolicy growth =
                                            GrowthPolicy::kDepthWise,
                                        int max_leaves = 0);

}  // namespace reds::ml

#endif  // REDS_ML_TUNING_H_
