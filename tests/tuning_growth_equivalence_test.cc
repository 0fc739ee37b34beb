// Equivalence contracts behind the warm-path optimizations:
//  - CV tuning through fold row views over one shared full-data index must
//    pick the same grid cell -- and produce the same final model -- as the
//    materialized oracle of tests/reference_tuning.h, which copies every
//    fold matrix;
//  - FitOnRows on a shared index must be bit-identical to materializing the
//    subset, for every tree family;
//  - leaf-wise (best-first) growth with no leaf cap must reproduce the
//    depth-wise fitted function wherever gains are untied, and survive the
//    serialization round trip with its append-at-expansion node order.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ml/cart.h"
#include "ml/gbt.h"
#include "ml/random_forest.h"
#include "ml/tuning.h"
#include "reference_tuning.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace reds {
namespace {

Dataset MakeData(int n, int dim, uint64_t seed, bool fractional = false,
                 int distinct_values = 0) {
  Rng rng(seed);
  Dataset d(dim);
  std::vector<double> x(static_cast<size_t>(dim));
  for (int i = 0; i < n; ++i) {
    for (auto& v : x) {
      v = distinct_values > 0
              ? static_cast<double>(rng.UniformInt(
                    static_cast<uint64_t>(distinct_values))) /
                    distinct_values
              : rng.Uniform();
    }
    const double p = (x[0] < 0.45 && x[1] > 0.3) ? 0.85 : 0.15;
    d.AddRow(x, fractional ? rng.LogitNormal(p > 0.5 ? 1.0 : -1.0, 0.8)
                           : (rng.Bernoulli(p) ? 1.0 : 0.0));
  }
  return d;
}

void ExpectSamePredictions(const ml::Metamodel& a, const ml::Metamodel& b,
                           const Dataset& probe, const char* what) {
  for (int i = 0; i < probe.num_rows(); ++i) {
    ASSERT_EQ(a.PredictProb(probe.row(i)), b.PredictProb(probe.row(i)))
        << what << " row " << i;
  }
}

TEST(StreamedTuningTest, SameWinnerAndModelAsMaterializedAcrossSeeds) {
  // Presorted backend: fold views are exact, so tuning must be
  // bit-identical to the materialized oracle -- same per-cell CV losses,
  // same winner, same refit.
  const Dataset d = MakeData(500, 4, 301);
  const Dataset probe = MakeData(200, 4, 302);
  for (const auto kind :
       {ml::MetamodelKind::kGbt, ml::MetamodelKind::kRandomForest,
        ml::MetamodelKind::kSvm}) {
    for (uint64_t seed : {11u, 23u, 37u}) {
      ml::TuningConfig config;
      config.folds = 3;
      const auto a = ml::TuneAndFit(kind, d, seed, config);
      const auto b = reference::TuneAndFitMaterialized(kind, d, seed, config);
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      ExpectSamePredictions(*a, *b, probe, "presorted");
    }
  }
}

TEST(StreamedTuningTest, SameModelOnHistogramBackendWithinBinBudget) {
  // Exact-pack regime (40 distinct values << 256 bins): the full-data
  // quantization the streamed folds share agrees with any fold-built one,
  // so histogram tuning is bit-identical to the oracle too.
  const Dataset d = MakeData(600, 4, 311, /*fractional=*/false, 40);
  const Dataset probe = MakeData(200, 4, 312);
  for (uint64_t seed : {7u, 19u}) {
    ml::TuningConfig config;
    config.folds = 3;
    config.backend = ml::SplitBackend::kHistogram;
    const auto a = ml::TuneAndFit(ml::MetamodelKind::kGbt, d, seed, config);
    const auto b = reference::TuneAndFitMaterialized(ml::MetamodelKind::kGbt,
                                                     d, seed, config);
    ExpectSamePredictions(*a, *b, probe, "histogram");
  }
}

TEST(StreamedTuningTest, FitOnRowsMatchesMaterializedSubset) {
  // The streamed plan's primitive: fitting on an ascending row view over
  // the full-data index must equal fitting on the copied subset.
  const Dataset d = MakeData(700, 4, 321, /*fractional=*/false, 30);
  const Dataset probe = MakeData(150, 4, 322);
  std::vector<int> rows;
  for (int r = 0; r < d.num_rows(); ++r) {
    if (r % 3 != 0) rows.push_back(r);  // a CV training fold's shape
  }
  const Dataset subset = d.SubsetRows(rows);
  const auto index = ColumnIndex::Build(d);
  const auto binned = BinnedIndex::Build(*index);

  for (const auto backend :
       {ml::SplitBackend::kPresorted, ml::SplitBackend::kHistogram}) {
    ml::GbtConfig gc;
    gc.num_rounds = 15;
    gc.max_depth = 3;
    gc.backend = backend;
    ml::GradientBoostedTrees streamed(gc), materialized(gc);
    streamed.FitOnRows(d, rows, 41, index.get(), binned.get());
    materialized.Fit(subset, 41);
    ExpectSamePredictions(streamed, materialized, probe, "gbt FitOnRows");

    ml::RandomForestConfig rc;
    rc.num_trees = 15;
    rc.backend = backend;
    ml::RandomForest rf_streamed(rc), rf_materialized(rc);
    rf_streamed.FitOnRows(d, rows, 43, index.get(), binned.get());
    rf_materialized.Fit(subset, 43);
    ExpectSamePredictions(rf_streamed, rf_materialized, probe,
                          "rf FitOnRows");
  }
}

TEST(LeafWiseGrowthTest, UncappedLeafWiseMatchesDepthWiseCart) {
  // Continuous features + fractional targets: gains are generically
  // untied, so best-first expansion finds the same split set as
  // depth-first -- only the node order differs. No mtry (feature draws
  // happen in creation order under leaf-wise, a different-but-valid rng
  // stream).
  for (uint64_t seed : {331u, 332u, 333u}) {
    const Dataset d = MakeData(400, 4, seed, /*fractional=*/true);
    const Dataset probe = MakeData(200, 4, seed + 500);
    ml::TreeConfig config;
    config.max_depth = 8;
    config.backend = ml::SplitBackend::kHistogram;

    ml::RegressionTree depth_wise;
    {
      Rng rng(5);
      depth_wise.Fit(d, config, &rng);
    }
    ml::RegressionTree leaf_wise;
    {
      ml::TreeConfig c = config;
      c.growth = ml::GrowthPolicy::kLeafWise;
      Rng rng(5);
      leaf_wise.Fit(d, c, &rng);
    }
    ASSERT_EQ(depth_wise.num_nodes(), leaf_wise.num_nodes()) << seed;
    ASSERT_EQ(depth_wise.num_leaves(), leaf_wise.num_leaves()) << seed;
    for (int i = 0; i < probe.num_rows(); ++i) {
      EXPECT_DOUBLE_EQ(depth_wise.Predict(probe.row(i)),
                       leaf_wise.Predict(probe.row(i)))
          << seed;
    }
  }
}

TEST(LeafWiseGrowthTest, UncappedLeafWiseMatchesDepthWiseGbt) {
  const Dataset d = MakeData(500, 4, 341, /*fractional=*/true);
  const Dataset probe = MakeData(200, 4, 342);
  ml::GbtConfig config;
  config.num_rounds = 20;
  config.max_depth = 4;
  config.backend = ml::SplitBackend::kHistogram;

  ml::GradientBoostedTrees depth_wise(config);
  depth_wise.Fit(d, 17);
  ml::GbtConfig leaf_config = config;
  leaf_config.growth = ml::GrowthPolicy::kLeafWise;
  ml::GradientBoostedTrees leaf_wise(leaf_config);
  leaf_wise.Fit(d, 17);
  ASSERT_EQ(depth_wise.num_trees(), leaf_wise.num_trees());
  for (int i = 0; i < probe.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(depth_wise.PredictMargin(probe.row(i)),
                     leaf_wise.PredictMargin(probe.row(i)));
  }
}

TEST(LeafWiseGrowthTest, MaxLeavesCapsTheTree) {
  const Dataset d = MakeData(800, 4, 351, /*fractional=*/true);
  ml::TreeConfig config;
  config.backend = ml::SplitBackend::kHistogram;
  config.growth = ml::GrowthPolicy::kLeafWise;
  config.max_leaves = 6;

  ml::RegressionTree tree;
  Rng rng(7);
  tree.Fit(d, config, &rng);
  ASSERT_TRUE(tree.fitted());
  EXPECT_LE(tree.num_leaves(), 6);
  // Deep data + best-first: the cap binds well below the uncapped size.
  ml::TreeConfig uncapped = config;
  uncapped.max_leaves = 0;
  ml::RegressionTree full;
  Rng rng2(7);
  full.Fit(d, uncapped, &rng2);
  EXPECT_GT(full.num_leaves(), 6);
}

TEST(LeafWiseGrowthTest, SerializationRoundTripPreservesLeafWiseTrees) {
  // Leaf-wise appends children at expansion, not at creation: the wire
  // format's strictly-forward child invariant must still hold.
  const Dataset d = MakeData(400, 4, 361, /*fractional=*/true);
  const Dataset probe = MakeData(150, 4, 362);
  ml::TreeConfig config;
  config.backend = ml::SplitBackend::kHistogram;
  config.growth = ml::GrowthPolicy::kLeafWise;
  config.max_leaves = 12;

  ml::RegressionTree tree;
  Rng rng(9);
  tree.Fit(d, config, &rng);
  ASSERT_TRUE(tree.fitted());

  util::ByteWriter wire;
  tree.SerializeTo(&wire);
  util::ByteReader reader(wire.data().data(), wire.size());
  ml::RegressionTree restored;
  ASSERT_TRUE(restored.DeserializeFrom(&reader, d.num_cols()).ok());
  ASSERT_EQ(restored.num_nodes(), tree.num_nodes());
  for (int i = 0; i < probe.num_rows(); ++i) {
    EXPECT_EQ(restored.Predict(probe.row(i)), tree.Predict(probe.row(i)));
  }
}

}  // namespace
}  // namespace reds
