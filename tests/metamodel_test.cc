// Tests for the metamodels (random forest, gradient boosted trees, RBF-SVM),
// the classification metrics and the CV tuning harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ml/gbt.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "ml/serialize.h"
#include "ml/svm.h"
#include "ml/tuning.h"
#include "reference_metamodel.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/simd.h"

namespace reds::ml {
namespace {

Dataset CircleData(int n, uint64_t seed) {
  // Positive inside a disc of radius 0.35 around the center.
  Rng rng(seed);
  Dataset d(2);
  for (int i = 0; i < n; ++i) {
    const double x[2] = {rng.Uniform(), rng.Uniform()};
    const double r2 =
        (x[0] - 0.5) * (x[0] - 0.5) + (x[1] - 0.5) * (x[1] - 0.5);
    d.AddRow(x, r2 < 0.35 * 0.35 ? 1.0 : 0.0);
  }
  return d;
}

double HoldoutAccuracy(const Metamodel& model, const Dataset& test) {
  int correct = 0;
  for (int i = 0; i < test.num_rows(); ++i) {
    const bool pred = model.PredictProb(test.row(i)) > 0.5;
    correct += pred == (test.y(i) > 0.5) ? 1 : 0;
  }
  return static_cast<double>(correct) / test.num_rows();
}

TEST(RandomForestTest, LearnsCircle) {
  const Dataset train = CircleData(600, 1);
  const Dataset test = CircleData(1000, 2);
  RandomForestConfig config;
  config.num_trees = 100;
  RandomForest rf(config);
  rf.Fit(train, 3);
  EXPECT_GT(HoldoutAccuracy(rf, test), 0.9);
}

TEST(RandomForestTest, ProbabilitiesAreCalibratedToClassShare) {
  const Dataset train = CircleData(800, 4);
  RandomForest rf;
  rf.Fit(train, 5);
  Rng rng(6);
  double mean_prob = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const double x[2] = {rng.Uniform(), rng.Uniform()};
    mean_prob += rf.PredictProb(x);
  }
  mean_prob /= n;
  EXPECT_NEAR(mean_prob, 0.35 * 0.35 * M_PI, 0.06);
}

TEST(RandomForestTest, ProbabilitiesInUnitInterval) {
  const Dataset train = CircleData(200, 7);
  RandomForest rf;
  rf.Fit(train, 8);
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const double x[2] = {rng.Uniform(), rng.Uniform()};
    const double p = rf.PredictProb(x);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(RandomForestTest, DeterministicForSeed) {
  const Dataset train = CircleData(200, 10);
  RandomForest a, b;
  a.Fit(train, 42);
  b.Fit(train, 42);
  const double x[2] = {0.4, 0.6};
  EXPECT_DOUBLE_EQ(a.PredictProb(x), b.PredictProb(x));
}

TEST(GbtTest, LearnsCircle) {
  const Dataset train = CircleData(600, 11);
  const Dataset test = CircleData(1000, 12);
  GbtConfig config;
  config.num_rounds = 120;
  config.max_depth = 4;
  GradientBoostedTrees gbt(config);
  gbt.Fit(train, 13);
  EXPECT_GT(HoldoutAccuracy(gbt, test), 0.9);
}

TEST(GbtTest, MoreRoundsReduceTrainLoss) {
  const Dataset train = CircleData(400, 14);
  GbtConfig few, many;
  few.num_rounds = 5;
  many.num_rounds = 100;
  GradientBoostedTrees m_few(few), m_many(many);
  m_few.Fit(train, 15);
  m_many.Fit(train, 15);
  std::vector<double> p_few, p_many, y;
  for (int i = 0; i < train.num_rows(); ++i) {
    p_few.push_back(m_few.PredictProb(train.row(i)));
    p_many.push_back(m_many.PredictProb(train.row(i)));
    y.push_back(train.y(i));
  }
  EXPECT_LT(LogLoss(p_many, y), LogLoss(p_few, y));
}

TEST(GbtTest, SubsamplingStillLearns) {
  const Dataset train = CircleData(600, 16);
  const Dataset test = CircleData(500, 17);
  GbtConfig config;
  config.subsample = 0.7;
  config.colsample = 0.5;
  config.num_rounds = 150;
  GradientBoostedTrees gbt(config);
  gbt.Fit(train, 18);
  EXPECT_GT(HoldoutAccuracy(gbt, test), 0.85);
}

TEST(GbtTest, MarginIsLogOddsOfProb) {
  const Dataset train = CircleData(300, 19);
  GradientBoostedTrees gbt;
  gbt.Fit(train, 20);
  const double x[2] = {0.5, 0.5};
  const double margin = gbt.PredictMargin(x);
  const double p = gbt.PredictProb(x);
  EXPECT_NEAR(p, 1.0 / (1.0 + std::exp(-margin)), 1e-12);
}

TEST(SvmTest, LearnsCircle) {
  const Dataset train = CircleData(400, 21);
  const Dataset test = CircleData(800, 22);
  SvmConfig config;
  config.c = 4.0;
  SvmRbf svm(config);
  svm.Fit(train, 23);
  EXPECT_GT(HoldoutAccuracy(svm, test), 0.85);
}

TEST(SvmTest, DecisionSignMatchesProbability) {
  const Dataset train = CircleData(300, 24);
  SvmRbf svm;
  svm.Fit(train, 25);
  Rng rng(26);
  for (int i = 0; i < 100; ++i) {
    const double x[2] = {rng.Uniform(), rng.Uniform()};
    EXPECT_EQ(svm.Decision(x) > 0.0, svm.PredictProb(x) > 0.5);
  }
}

TEST(SvmTest, KeepsOnlySupportVectors) {
  const Dataset train = CircleData(400, 27);
  SvmRbf svm;
  svm.Fit(train, 28);
  EXPECT_GT(svm.num_support_vectors(), 0);
  EXPECT_LT(svm.num_support_vectors(), train.num_rows());
}

TEST(MetricsTest, AccuracyAndBrier) {
  const std::vector<double> prob{0.9, 0.2, 0.6, 0.4};
  const std::vector<double> y{1.0, 0.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(Accuracy(prob, y), 0.5);
  const double expected_brier =
      (0.01 + 0.04 + 0.36 + 0.36) / 4.0;
  EXPECT_NEAR(BrierScore(prob, y), expected_brier, 1e-12);
}

TEST(MetricsTest, LogLossPerfectAndWorst) {
  EXPECT_NEAR(LogLoss({1.0, 0.0}, {1.0, 0.0}), 0.0, 1e-9);
  EXPECT_GT(LogLoss({0.0, 1.0}, {1.0, 0.0}), 10.0);
}

TEST(MetricsTest, RocAucPerfectRanking) {
  EXPECT_DOUBLE_EQ(RocAuc({0.1, 0.2, 0.8, 0.9}, {0.0, 0.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(RocAuc({0.9, 0.8, 0.2, 0.1}, {0.0, 0.0, 1.0, 1.0}), 0.0);
}

TEST(MetricsTest, RocAucTiesGetHalfCredit) {
  EXPECT_DOUBLE_EQ(RocAuc({0.5, 0.5, 0.5, 0.5}, {0.0, 1.0, 0.0, 1.0}), 0.5);
}

TEST(TuningTest, FoldAssignmentIsBalanced) {
  const auto fold = FoldAssignment(103, 5, 1);
  std::vector<int> counts(5, 0);
  for (int f : fold) {
    ASSERT_GE(f, 0);
    ASSERT_LT(f, 5);
    counts[static_cast<size_t>(f)]++;
  }
  for (int c : counts) {
    EXPECT_GE(c, 20);
    EXPECT_LE(c, 21);
  }
}

TEST(TuningTest, TuneAndFitReturnsWorkingModel) {
  const Dataset train = CircleData(300, 30);
  const Dataset test = CircleData(500, 31);
  for (MetamodelKind kind : {MetamodelKind::kRandomForest, MetamodelKind::kGbt,
                             MetamodelKind::kSvm}) {
    auto model = TuneAndFit(kind, train, 32);
    ASSERT_NE(model, nullptr);
    EXPECT_GT(HoldoutAccuracy(*model, test), 0.8)
        << MetamodelSuffix(kind);
  }
}

TEST(TuningTest, FitDefaultReturnsWorkingModel) {
  const Dataset train = CircleData(300, 33);
  const Dataset test = CircleData(500, 34);
  for (MetamodelKind kind : {MetamodelKind::kRandomForest, MetamodelKind::kGbt,
                             MetamodelKind::kSvm}) {
    auto model = FitDefault(kind, train, 35);
    ASSERT_NE(model, nullptr);
    EXPECT_GT(HoldoutAccuracy(*model, test), 0.8) << MetamodelSuffix(kind);
  }
}

// ---------------------------------------------------------------------------
// Block inference bit-identity against the per-row oracle of
// tests/reference_metamodel.h: PredictBlock and PredictProb must match it
// bit for bit, for every family and block size.
// ---------------------------------------------------------------------------

std::string Serialized(const Metamodel& model, MetamodelKind kind) {
  util::ByteWriter out;
  SerializeMetamodel(model, kind, &out);
  return out.data();
}

std::shared_ptr<const Metamodel> Reloaded(MetamodelKind kind,
                                          const std::string& bytes) {
  util::ByteReader in(bytes);
  Result<std::shared_ptr<const Metamodel>> model =
      DeserializeMetamodel(&in, kind);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return model.ok() ? *model : nullptr;
}

// Four features: a continuous one, a 0/1 one, one spanning -1..1 with exact
// signed zeros, and one in the subnormal range -- so fitted thresholds land
// on all of those scales.
Dataset AdversarialTrainingData(int n, uint64_t seed) {
  Rng rng(seed);
  Dataset d(4);
  for (int i = 0; i < n; ++i) {
    const double tiny = std::numeric_limits<double>::denorm_min();
    double x[4] = {rng.Uniform(), rng.Bernoulli(0.5) ? 1.0 : 0.0,
                   2.0 * rng.Uniform() - 1.0, rng.Uniform() * 1e3 * tiny};
    if (i % 17 == 0) x[2] = (i % 34 == 0) ? -0.0 : 0.0;
    const double score =
        x[0] + 0.3 * x[1] - 0.2 * x[2] + (x[3] > 500 * tiny ? 0.2 : 0.0);
    d.AddRow(x, score + 0.1 * rng.Uniform() > 0.75 ? 1.0 : 0.0);
  }
  return d;
}

// Probe rows: inputs exactly on (and one ulp around) every split threshold,
// rows built from {+0, -0, 0/1, subnormal, DBL_MIN} values, and random
// rows, padded to more than 8193 rows.
std::vector<double> ProbeRows(const reference::MetamodelOracle& oracle,
                              uint64_t seed) {
  const double specials[] = {0.0, -0.0, 1.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             DBL_MIN, DBL_MIN / 2, -DBL_MIN};
  const int m = 4;
  Rng rng(seed);
  std::vector<double> rows;
  const auto random_row = [&] {
    std::vector<double> r = {rng.Uniform(), rng.Bernoulli(0.5) ? 1.0 : 0.0,
                             2.0 * rng.Uniform() - 1.0,
                             rng.Uniform() * 1e3 *
                                 std::numeric_limits<double>::denorm_min()};
    return r;
  };
  for (const auto& [f, t] : oracle.Splits()) {
    for (const double v : {t, std::nextafter(t, -INFINITY),
                           std::nextafter(t, INFINITY)}) {
      std::vector<double> r = random_row();
      r[static_cast<size_t>(f)] = v;
      rows.insert(rows.end(), r.begin(), r.end());
    }
    if (rows.size() > 6000u * m) break;
  }
  for (const double a : specials) {
    for (const double b : specials) {
      for (int j = 0; j < m; ++j) {
        std::vector<double> r(static_cast<size_t>(m), a);
        r[static_cast<size_t>(j)] = b;
        rows.insert(rows.end(), r.begin(), r.end());
      }
    }
  }
  while (rows.size() < 9000u * m) {
    const std::vector<double> r = random_row();
    rows.insert(rows.end(), r.begin(), r.end());
  }
  return rows;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void ExpectBlocksMatchOracle(const Metamodel& model,
                             const reference::MetamodelOracle& oracle,
                             const std::vector<double>& rows,
                             const char* label) {
  const int m = model.num_features();
  const int n = static_cast<int>(rows.size()) / m;
  std::vector<double> expected(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    expected[static_cast<size_t>(i)] =
        oracle.Predict(rows.data() + static_cast<size_t>(i) * m);
  }
  for (int i = 0; i < n; i += 97) {
    const double* row = rows.data() + static_cast<size_t>(i) * m;
    ASSERT_TRUE(SameBits(model.PredictProb(row),
                         expected[static_cast<size_t>(i)]))
        << label << " PredictProb row " << i;
  }
  for (const int block : {1, 7, 8, 9, 8192, 8193}) {
    std::vector<double> out(static_cast<size_t>(n), -1.0);
    for (int r0 = 0; r0 < n; r0 += block) {
      const int rows_here = std::min(block, n - r0);
      model.PredictBlock(
          la::ConstMatrixView(rows.data() + static_cast<size_t>(r0) * m,
                              rows_here, m),
          out.data() + r0);
    }
    int mismatches = 0;
    for (int i = 0; i < n; ++i) {
      mismatches += SameBits(out[static_cast<size_t>(i)],
                             expected[static_cast<size_t>(i)])
                        ? 0
                        : 1;
    }
    EXPECT_EQ(mismatches, 0) << label << " block " << block;
  }
}

std::unique_ptr<Metamodel> FitForBlockTest(MetamodelKind kind,
                                           const Dataset& train) {
  std::unique_ptr<Metamodel> model;
  switch (kind) {
    case MetamodelKind::kRandomForest: {
      RandomForestConfig config;
      config.num_trees = 40;
      model = std::make_unique<RandomForest>(config);
      break;
    }
    case MetamodelKind::kGbt:
      model = std::make_unique<GradientBoostedTrees>();
      break;
    case MetamodelKind::kSvm:
      model = std::make_unique<SvmRbf>();
      break;
  }
  model->Fit(train, 31);
  return model;
}

TEST(PredictBlockTest, BitIdenticalToPerRowOracleForEveryKind) {
  const Dataset train = AdversarialTrainingData(400, 30);
  std::vector<util::SimdLevel> levels = {util::SimdLevel::kScalar};
  if (util::Avx2Available()) levels.push_back(util::SimdLevel::kAvx2);
  for (const MetamodelKind kind :
       {MetamodelKind::kRandomForest, MetamodelKind::kGbt,
        MetamodelKind::kSvm}) {
    const std::unique_ptr<Metamodel> fitted = FitForBlockTest(kind, train);
    const std::string bytes = Serialized(*fitted, kind);
    const std::shared_ptr<const Metamodel> reloaded = Reloaded(kind, bytes);
    ASSERT_NE(reloaded, nullptr);
    EXPECT_EQ(Serialized(*reloaded, kind), bytes) << "wire round trip";
    const reference::MetamodelOracle oracle(kind, bytes);
    ASSERT_TRUE(oracle.ok());
    const std::vector<double> rows = ProbeRows(oracle, 32);
    for (const util::SimdLevel level : levels) {
      const util::SimdLevel previous = util::ForceSimdLevel(level);
      const std::string label =
          MetamodelSuffix(kind) + "/" + util::SimdLevelName(level);
      ExpectBlocksMatchOracle(*fitted, oracle, rows,
                              (label + " fitted").c_str());
      ExpectBlocksMatchOracle(*reloaded, oracle, rows,
                              (label + " reloaded").c_str());
      util::ForceSimdLevel(previous);
    }
  }
}

TEST(TuningTest, MetamodelSuffixNames) {
  EXPECT_EQ(MetamodelSuffix(MetamodelKind::kRandomForest), "f");
  EXPECT_EQ(MetamodelSuffix(MetamodelKind::kGbt), "x");
  EXPECT_EQ(MetamodelSuffix(MetamodelKind::kSvm), "s");
}

}  // namespace
}  // namespace reds::ml
