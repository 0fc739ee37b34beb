// The metamodel tier: the heaviest step of a REDS request is training (and
// especially CV-tuning) the metamodel, yet batches routinely run many
// method variants ("RPx", "RPxp", "RBIcxp", ...) over the same dataset.
// Keyed by everything that shapes the fitted model, each distinct
// metamodel is fit once per engine; concurrent requests for one key wait on
// the first fit (util/memo.h).
#ifndef REDS_ENGINE_METAMODEL_CACHE_H_
#define REDS_ENGINE_METAMODEL_CACHE_H_

#include <cstdint>
#include <memory>
#include <tuple>

#include "ml/model.h"
#include "ml/tuning.h"
#include "util/memo.h"

namespace reds::engine {

/// Identity of one trained metamodel. The split backend is part of the
/// identity: histogram-trained trees differ from presorted/exact ones
/// beyond 256 distinct values per feature, so they must not share entries.
/// So is the tree growth order: leaf-wise trees (and any max_leaves cap)
/// are a different model whenever gains tie or the cap binds.
struct MetamodelKey {
  uint64_t fingerprint = 0;  // FingerprintDataset of the training data
  ml::MetamodelKind kind = ml::MetamodelKind::kGbt;
  bool tuned = false;
  ml::TuningBudget budget = ml::TuningBudget::kQuick;
  ml::SplitBackend backend = ml::SplitBackend::kPresorted;
  ml::GrowthPolicy growth = ml::GrowthPolicy::kDepthWise;
  int max_leaves = 0;
  uint64_t seed = 0;

  friend bool operator<(const MetamodelKey& a, const MetamodelKey& b) {
    return std::tie(a.fingerprint, a.kind, a.tuned, a.budget, a.backend,
                    a.growth, a.max_leaves, a.seed) <
           std::tie(b.fingerprint, b.kind, b.tuned, b.budget, b.backend,
                    b.growth, b.max_leaves, b.seed);
  }
};

/// Trained metamodels by key; the engine registers it as `cache.metamodel`
/// with `fits` as its miss counter.
using MetamodelCache = Memo<MetamodelKey, std::shared_ptr<const ml::Metamodel>>;

}  // namespace reds::engine

#endif  // REDS_ENGINE_METAMODEL_CACHE_H_
