// Test-only oracle for REDS + plain PRIM at the method layer, kept as the
// materialized composition the streamed path replaces: RedsRelabel writes
// the L relabeled points into a dense L x M Dataset D_new, and RunPrim
// peels it with the original sample D validating. RunMethod streams the
// same points (RedsRelabelStreamed -> BuildStreamed -> RunPrimStreamed)
// and must discover the identical boxes whenever every sampled column has
// at most 256 distinct values. Its residency grows with L x M doubles --
// the REDS memory smoke's negative control.
#ifndef REDS_TESTS_REFERENCE_METHOD_H_
#define REDS_TESTS_REFERENCE_METHOD_H_

#include <cassert>

#include "core/dataset.h"
#include "core/method.h"
#include "core/prim.h"
#include "core/reds.h"
#include "util/rng.h"

namespace reds::reference {

/// RunMethod for a REDS + plain PRIM spec ("RP..."), relabeling into
/// memory. Hyperparameters resolve through PlanMethod; the relabel seed is
/// derived from options.seed as the method layer derives it.
inline MethodOutput RunRedsPrimMaterialized(const MethodSpec& spec,
                                            const Dataset& train,
                                            const RunOptions& options) {
  assert(spec.reds && spec.family == MethodSpec::Family::kPrim);
  const MethodPlan plan = PlanMethod(spec, train, options);
  RedsConfig config;
  config.metamodel = spec.metamodel;
  config.tune_metamodel = options.tune_metamodel;
  config.budget = options.budget;
  config.probability_labels = spec.probability_labels;
  config.num_new_points = options.l_prim;
  config.split_backend = options.split_backend;
  config.tree_growth = options.tree_growth;
  config.tree_max_leaves = options.tree_max_leaves;
  config.sampler = options.sampler;
  config.metamodel_provider = options.metamodel_provider;
  const Dataset relabeled =
      RedsRelabel(train, config, DeriveSeed(options.seed, 23)).new_data;
  PrimConfig prim;
  prim.alpha = plan.alpha;
  prim.min_points = options.min_points;
  const PrimResult r = RunPrim(relabeled, train, prim);
  MethodOutput out;
  out.trajectory = r.ReturnedBoxes();
  out.last_box = r.BestBox();
  out.chosen_alpha = plan.alpha;
  out.chosen_m = plan.m;
  return out;
}

}  // namespace reds::reference

#endif  // REDS_TESTS_REFERENCE_METHOD_H_
