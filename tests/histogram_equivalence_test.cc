// Histogram-vs-exact split search equivalence. Whenever every feature has
// at most BinnedIndex::kMaxBins distinct values, every bin holds exactly one
// distinct value, the candidate thresholds coincide with the exact search's
// between-distinct-values midpoints, and (with {0,1} targets making sums
// integer-exact) the fitted trees are bit-identical across all three
// backends. Beyond that the histogram backend is an approximation whose
// quality must stay within a small delta of the exact fit.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ml/cart.h"
#include "ml/gbt.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "ml/tuning.h"
#include "util/rng.h"

namespace reds {
namespace {

Dataset MakeData(int n, int dim, uint64_t seed, bool fractional,
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

double TrainLogLoss(const ml::Metamodel& model, const Dataset& d) {
  std::vector<double> prob, y;
  prob.reserve(static_cast<size_t>(d.num_rows()));
  y.reserve(static_cast<size_t>(d.num_rows()));
  for (int i = 0; i < d.num_rows(); ++i) {
    prob.push_back(model.PredictProb(d.row(i)));
    y.push_back(d.y(i) > 0.5 ? 1.0 : 0.0);
  }
  return ml::LogLoss(prob, y);
}

TEST(HistogramCartTest, BitIdenticalToExactWithinBinBudget) {
  // 40 distinct values per feature << 256 bins: one bin per value.
  for (uint64_t seed : {201u, 202u, 203u}) {
    const Dataset d = MakeData(900, 5, seed, /*fractional=*/false, 40);
    const Dataset probe = MakeData(300, 5, seed + 1000, /*fractional=*/false);
    ml::TreeConfig config;
    config.max_depth = 10;

    ml::RegressionTree exact;
    {
      ml::TreeConfig c = config;
      c.backend = ml::SplitBackend::kExact;
      Rng rng(9);
      exact.Fit(d, c, &rng);
    }
    ml::RegressionTree hist;
    {
      ml::TreeConfig c = config;
      c.backend = ml::SplitBackend::kHistogram;
      Rng rng(9);
      hist.Fit(d, c, &rng);
    }
    ASSERT_EQ(exact.num_nodes(), hist.num_nodes()) << seed;
    for (int i = 0; i < probe.num_rows(); ++i) {
      EXPECT_DOUBLE_EQ(exact.Predict(probe.row(i)), hist.Predict(probe.row(i)))
          << seed;
    }
  }
}

TEST(HistogramCartTest, SubtractionTrickMatchesScanUnderBootstrap) {
  // No mtry -> parent-minus-sibling subtraction is active; bootstrap rows
  // with duplicates exercise per-position code gathering.
  const Dataset d = MakeData(700, 4, 211, /*fractional=*/false, 25);
  const Dataset probe = MakeData(200, 4, 212, /*fractional=*/false);
  Rng bootstrap_rng(213);
  const std::vector<int> rows = bootstrap_rng.BootstrapIndices(d.num_rows());
  ml::TreeConfig config;
  config.max_depth = 12;

  ml::RegressionTree exact;
  {
    ml::TreeConfig c = config;
    c.backend = ml::SplitBackend::kExact;
    Rng rng(3);
    exact.Fit(d, rows, c, &rng);
  }
  ml::RegressionTree hist;
  {
    ml::TreeConfig c = config;
    c.backend = ml::SplitBackend::kHistogram;
    Rng rng(3);
    hist.Fit(d, rows, c, &rng);
  }
  ASSERT_EQ(exact.num_nodes(), hist.num_nodes());
  for (int i = 0; i < probe.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(exact.Predict(probe.row(i)), hist.Predict(probe.row(i)));
  }
}

TEST(HistogramGbtTest, BitIdenticalToPresortedWhenAllValuesDistinct) {
  // n = 220 continuous rows: every value distinct, so every bin holds one
  // row and even the floating-point gradient prefix sums accumulate in the
  // presorted path's exact order.
  const Dataset d = MakeData(220, 4, 231, /*fractional=*/true);
  const Dataset probe = MakeData(150, 4, 232, /*fractional=*/false);
  ml::GbtConfig config;
  config.num_rounds = 25;
  config.max_depth = 3;

  ml::GradientBoostedTrees presorted(config);
  presorted.Fit(d, 17);
  ml::GbtConfig hist_config = config;
  hist_config.backend = ml::SplitBackend::kHistogram;
  ml::GradientBoostedTrees hist(hist_config);
  hist.Fit(d, 17);
  ASSERT_EQ(presorted.num_trees(), hist.num_trees());
  for (int i = 0; i < probe.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(presorted.PredictMargin(probe.row(i)),
                     hist.PredictMargin(probe.row(i)));
  }
}

TEST(HistogramGbtTest, SharedIndexesMatchPrivateBuild) {
  // The engine hands fits cached ColumnIndex/BinnedIndex instances; the
  // inline path builds private ones. Both must produce the same model.
  const Dataset d = MakeData(1500, 5, 241, /*fractional=*/false);
  const Dataset probe = MakeData(200, 5, 242, /*fractional=*/false);
  ml::GbtConfig config;
  config.num_rounds = 10;
  config.max_depth = 4;
  config.backend = ml::SplitBackend::kHistogram;

  ml::GradientBoostedTrees inline_fit(config);
  inline_fit.Fit(d, 23);
  ml::GradientBoostedTrees shared_fit(config);
  {
    const auto index = ColumnIndex::Build(d);
    const auto binned = BinnedIndex::Build(*index);
    shared_fit.Fit(d, 23, index.get(), binned.get());
  }
  for (int i = 0; i < probe.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(inline_fit.PredictMargin(probe.row(i)),
                     shared_fit.PredictMargin(probe.row(i)));
  }
}

TEST(HistogramGbtTest, BoundedQualityDeltaBeyondTheBinBudget) {
  // 6000 continuous rows: ~23 values per bin, so the histogram fit is a
  // genuine approximation. Its training quality must stay within a small
  // delta of the exact presorted fit.
  const Dataset d = MakeData(6000, 5, 251, /*fractional=*/false);
  ml::GbtConfig config;
  config.num_rounds = 40;
  config.max_depth = 4;
  config.subsample = 0.9;

  ml::GradientBoostedTrees presorted(config);
  presorted.Fit(d, 29);
  ml::GbtConfig hist_config = config;
  hist_config.backend = ml::SplitBackend::kHistogram;
  ml::GradientBoostedTrees hist(hist_config);
  hist.Fit(d, 29);

  const double ll_presorted = TrainLogLoss(presorted, d);
  const double ll_hist = TrainLogLoss(hist, d);
  EXPECT_LT(ll_presorted, 0.5);
  EXPECT_LT(ll_hist, 0.5);
  EXPECT_NEAR(ll_presorted, ll_hist, 0.05);
}

TEST(HistogramRandomForestTest, BitIdenticalToExactWithinBinBudget) {
  // mtry is active (no subtraction): trees rebuild histograms per node and
  // must consume the identical feature-sampling rng stream.
  const Dataset d = MakeData(600, 5, 261, /*fractional=*/false, 30);
  const Dataset probe = MakeData(200, 5, 262, /*fractional=*/false);
  ml::RandomForestConfig config;
  config.num_trees = 20;

  ml::RandomForestConfig exact_config = config;
  exact_config.backend = ml::SplitBackend::kExact;
  ml::RandomForest exact(exact_config);
  exact.Fit(d, 31);
  ml::RandomForestConfig hist_config = config;
  hist_config.backend = ml::SplitBackend::kHistogram;
  ml::RandomForest hist(hist_config);
  hist.Fit(d, 31);
  for (int i = 0; i < probe.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(exact.PredictProb(probe.row(i)),
                     hist.PredictProb(probe.row(i)));
  }
  const std::vector<double> exact_oob = exact.OobPredictions(d);
  const std::vector<double> hist_oob = hist.OobPredictions(d);
  for (int i = 0; i < d.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(exact_oob[static_cast<size_t>(i)],
                     hist_oob[static_cast<size_t>(i)]);
  }
}

TEST(HistogramTuningTest, GridTuningRunsOnTheHistogramBackend) {
  const Dataset d = MakeData(500, 4, 271, /*fractional=*/false);
  ml::TuningConfig config;
  config.folds = 3;
  config.backend = ml::SplitBackend::kHistogram;
  const auto model = ml::TuneAndFit(ml::MetamodelKind::kGbt, d, 37, config);
  ASSERT_NE(model, nullptr);
  int correct = 0;
  for (int i = 0; i < d.num_rows(); ++i) {
    const double p = model->PredictProb(d.row(i));
    ASSERT_GE(p, 0.0);
    ASSERT_LE(p, 1.0);
    correct += (p > 0.5) == (d.y(i) > 0.5) ? 1 : 0;
  }
  EXPECT_GT(correct, d.num_rows() / 2);
}

// The 4-row unrolled accumulation gathers must produce bit-identical bins
// to the scalar reference -- bumps stay in row order -- for every length
// (covering the remainder loop) and under shared bins within one group.
TEST(HistogramAccumulateTest, UnrolledMatchesReferenceBitForBit) {
  Rng rng(99);
  const int n = 1037;
  std::vector<uint8_t> codes(static_cast<size_t>(n));
  std::vector<double> g(static_cast<size_t>(n)), h(static_cast<size_t>(n));
  std::vector<int> ids;
  for (int i = 0; i < n; ++i) {
    codes[static_cast<size_t>(i)] =
        static_cast<uint8_t>(rng.UniformInt(7));  // few bins: many clashes
    g[static_cast<size_t>(i)] = rng.Normal();
    h[static_cast<size_t>(i)] = rng.Uniform();
    if (rng.Bernoulli(0.7)) ids.push_back(i);
  }
  for (const int len : {0, 1, 2, 3, 4, 5, 7, 8, static_cast<int>(ids.size())}) {
    std::vector<ml::HistBin> unrolled(16), reference(16);
    ml::AccumulateHistogram(codes.data(), ids.data(), len, g.data(),
                            h.data(), unrolled.data());
    ml::AccumulateHistogramReference(codes.data(), ids.data(), len, g.data(),
                                     h.data(), reference.data());
    for (int b = 0; b < 16; ++b) {
      EXPECT_EQ(unrolled[static_cast<size_t>(b)].g,
                reference[static_cast<size_t>(b)].g);
      EXPECT_EQ(unrolled[static_cast<size_t>(b)].h,
                reference[static_cast<size_t>(b)].h);
      EXPECT_EQ(unrolled[static_cast<size_t>(b)].count,
                reference[static_cast<size_t>(b)].count);
    }
    // The g-only (CART) variant too.
    std::vector<ml::HistBin> unrolled_g(16), reference_g(16);
    ml::AccumulateHistogram(codes.data(), ids.data(), len, g.data(),
                            unrolled_g.data());
    ml::AccumulateHistogramReference(codes.data(), ids.data(), len, g.data(),
                                     reference_g.data());
    for (int b = 0; b < 16; ++b) {
      EXPECT_EQ(unrolled_g[static_cast<size_t>(b)].g,
                reference_g[static_cast<size_t>(b)].g);
      EXPECT_EQ(unrolled_g[static_cast<size_t>(b)].count,
                reference_g[static_cast<size_t>(b)].count);
    }
  }
}

}  // namespace
}  // namespace reds
