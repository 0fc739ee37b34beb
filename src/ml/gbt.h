// Gradient boosted trees with second-order (Newton) boosting, logistic loss,
// L2 leaf regularization and exact greedy split finding -- the XGBoost
// recipe (Chen & Guestrin 2016) reimplemented from scratch. Backs the "x"
// metamodel variants ("RPx", "RPxp", "RBIcxp", ...).
//
// Split search runs on one of three backends (GbtConfig::backend): the
// reference sort-per-node scan (kExact), presorted per-feature row orders
// derived once per round from a shared ColumnIndex and partitioned down the
// tree (kPresorted, bit-identical to exact), or binned gradient/hessian
// histograms over a shared BinnedIndex (kHistogram: O(bins) scans with
// parent-minus-sibling subtraction, LightGBM-style).
#ifndef REDS_ML_GBT_H_
#define REDS_ML_GBT_H_

#include <vector>

#include "core/binned_index.h"
#include "core/column_index.h"
#include "ml/flat_trees.h"
#include "ml/histogram.h"
#include "ml/model.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

namespace reds::ml {

struct GbtConfig {
  int num_rounds = 100;
  int max_depth = 4;
  double eta = 0.3;              // shrinkage / learning rate
  double lambda = 1.0;           // L2 regularization on leaf weights
  double gamma = 0.0;            // minimal gain to split
  double min_child_weight = 1.0; // minimal hessian sum per child
  double subsample = 1.0;        // row subsampling per round
  double colsample = 1.0;        // feature subsampling per round
  double base_score = 0.5;       // initial probability
  SplitBackend backend = SplitBackend::kPresorted;
  // Frontier order. kLeafWise takes effect on the histogram backend only
  // (the other backends grow depth-wise regardless): a max-gain priority
  // queue over open leaves, bounded by max_leaves when > 0. max_depth still
  // applies. With max_leaves == 0 and untied gains the fitted function is
  // identical to depth-wise (node order differs).
  GrowthPolicy growth = GrowthPolicy::kDepthWise;
  int max_leaves = 0;            // leaf-wise cap per tree; 0 = unlimited
};

class GradientBoostedTrees : public Metamodel {
 public:
  explicit GradientBoostedTrees(GbtConfig config = {}) : config_(config) {}

  void Fit(const Dataset& d, uint64_t seed) override;

  /// As Fit, reusing prebuilt indexes of d (e.g. the discovery engine's
  /// shared per-dataset caches) instead of building them per fit. The
  /// histogram backend uses `binned`; the presorted backend uses `index`.
  void Fit(const Dataset& d, uint64_t seed, const ColumnIndex* index,
           const BinnedIndex* binned = nullptr) override;

  /// Subset fit on *views*: trains on `rows` only, reading values, sorted
  /// orders, and bin codes through the full-data indexes instead of
  /// materializing a row-subset Dataset + private indexes (the CV-fold hot
  /// path). Bit-identical to the materializing default whenever the
  /// backend's index carries exact value order (presorted always; histogram
  /// in the exact-pack regime), because the subset positions are an
  /// order-preserving renumbering of the rows: every RNG draw, accumulation
  /// order, and candidate scan matches the subset fit's. Falls back to the
  /// materializing default when the backend's index is missing.
  void FitOnRows(const Dataset& d, const std::vector<int>& rows,
                 uint64_t seed, const ColumnIndex* index,
                 const BinnedIndex* binned) override;

  void PredictBlock(la::ConstMatrixView x, double* out) const override;

  /// PredictBlock through the first `num_trees` trees only. The round loop
  /// draws no randomness when subsample and colsample are 1, so a fit's
  /// first r trees are an r-round fit's trees: this is that fit's
  /// PredictBlock, bit for bit (trees are added in order for every row).
  void PredictBlock(la::ConstMatrixView x, int num_trees, double* out) const;
  int num_features() const override { return num_features_; }

  /// Raw additive score before the sigmoid (log-odds scale).
  double PredictMargin(const double* x) const;

  int num_trees() const { return trees_.num_trees(); }
  const GbtConfig& config() const { return config_; }

  /// Appends the fitted ensemble (base margin + flat tree arrays) to `out`
  /// in the stable little-endian cache layout; everything PredictProb needs
  /// and nothing else (the fit-time config is not persisted).
  void SerializeTo(util::ByteWriter* out) const;

  /// Restores an ensemble written by SerializeTo, validating node indexes.
  Status DeserializeFrom(util::ByteReader* in);

 private:
  struct RoundContext;

  int BuildNode(const Dataset& d, const std::vector<double>& grad,
                const std::vector<double>& hess, std::vector<int>* rows,
                int begin, int end, int depth,
                const std::vector<int>& features, FlatTrees* tree) const;
  int BuildNodeSorted(RoundContext* ctx, int begin, int end, int depth,
                      FlatTrees* tree) const;
  int BuildNodeHistogram(RoundContext* ctx, int begin, int end, int depth,
                         std::vector<HistBin> hist, FlatTrees* tree) const;
  int BuildLeafWise(RoundContext* ctx, int begin, int end,
                    FlatTrees* tree) const;
  void FitImpl(const Dataset& d, const std::vector<int>* fit_rows,
               uint64_t seed, const ColumnIndex* index,
               const BinnedIndex* binned);

  GbtConfig config_;
  FlatTrees trees_;
  double base_margin_ = 0.0;
  int num_features_ = 0;
};

}  // namespace reds::ml

#endif  // REDS_ML_GBT_H_
