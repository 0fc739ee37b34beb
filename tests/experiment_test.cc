// Tests for the experiment harness: cell layout, metric sanity, pairing of
// datasets across methods, and the relative-change helper.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "exp/bench_flags.h"
#include "exp/experiment.h"

namespace reds::exp {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.functions = {"ellipse", "dalal3"};
  config.methods = {"P", "RPx"};
  config.sizes = {150};
  config.reps = 3;
  config.test_size = 2000;
  config.options.l_prim = 2000;
  config.options.l_bi = 1000;
  config.options.bumping_q = 8;
  config.options.tune_metamodel = false;
  config.seed = 7;
  return config;
}

TEST(ExperimentTest, RunsAllCells) {
  Runner runner(SmallConfig());
  runner.Run();
  for (const auto& f : {"ellipse", "dalal3"}) {
    for (const auto& m : {"P", "RPx"}) {
      const CellResult& c = runner.cell(f, m, 150);
      EXPECT_EQ(c.reps.size(), 3u);
      EXPECT_EQ(c.last_boxes.size(), 3u);
      for (const auto& rep : c.reps) {
        EXPECT_GE(rep.pr_auc, 0.0);
        EXPECT_LE(rep.pr_auc, 100.0 + 1e-9);
        EXPECT_GE(rep.precision, 0.0);
        EXPECT_LE(rep.precision, 100.0 + 1e-9);
        EXPECT_GE(rep.restricted, 0.0);
        EXPECT_GE(rep.runtime_seconds, 0.0);
      }
      EXPECT_GE(c.consistency, 0.0);
      EXPECT_LE(c.consistency, 100.0 + 1e-9);
    }
  }
}

TEST(ExperimentTest, HaltonTestSetsShareNoRowWithTrainingSets) {
  // dsgc's Halton training designs start at a random leap; the test set
  // must start past every stretch they can use. Regenerate the training
  // set of every (N, rep) cell the runner would use and check that none of
  // its points is a test point.
  auto fn = fun::MakeFunction("dsgc");
  ASSERT_TRUE(fn.ok());
  const fun::DesignKind design = fun::DefaultDesignFor(**fn);
  ASSERT_EQ(design, fun::DesignKind::kHalton);
  const uint64_t seed = 42;
  const std::vector<int> sizes = {200, 400};
  const Dataset test =
      MakeTestSet(**fn, 20000, design, 400, TestDataSeed(seed, 0));
  std::set<std::vector<double>> test_rows;
  for (int i = 0; i < test.num_rows(); ++i) {
    test_rows.emplace(test.row(i), test.row(i) + test.num_cols());
  }
  int training_sets = 0;
  for (const int n : sizes) {
    for (int rep = 0; rep < 10; ++rep) {
      const Dataset train = fun::MakeScenarioDataset(
          **fn, n, design, TrainingDataSeed(seed, 0, n, rep));
      for (int i = 0; i < train.num_rows(); ++i) {
        ASSERT_EQ(test_rows.count(std::vector<double>(
                      train.row(i), train.row(i) + train.num_cols())),
                  0u)
            << "N=" << n << " rep " << rep << " row " << i;
      }
      ++training_sets;
    }
  }
  EXPECT_EQ(training_sets, 20);
}

TEST(ExperimentTest, MeanAggregatesReps) {
  Runner runner(SmallConfig());
  runner.Run();
  const CellResult& c = runner.cell("ellipse", "P", 150);
  const MetricSet mean = c.Mean();
  double manual = 0.0;
  for (const auto& r : c.reps) manual += r.pr_auc;
  EXPECT_NEAR(mean.pr_auc, manual / 3.0, 1e-12);
}

TEST(ExperimentTest, FunctionMeansOrderedLikeConfig) {
  Runner runner(SmallConfig());
  runner.Run();
  const auto means = runner.FunctionMeans("P", 150, &MetricSet::pr_auc);
  ASSERT_EQ(means.size(), 2u);
  EXPECT_NEAR(means[0], runner.cell("ellipse", "P", 150).Mean().pr_auc, 1e-12);
}

TEST(ExperimentTest, UnknownCellThrows) {
  Runner runner(SmallConfig());
  runner.Run();
  EXPECT_THROW(runner.cell("nope", "P", 150), std::out_of_range);
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  Runner a(SmallConfig());
  Runner b(SmallConfig());
  a.Run();
  b.Run();
  EXPECT_DOUBLE_EQ(a.cell("ellipse", "RPx", 150).Mean().pr_auc,
                   b.cell("ellipse", "RPx", 150).Mean().pr_auc);
}

TEST(ExperimentTest, RelativeChangeHelper) {
  EXPECT_DOUBLE_EQ(RelativeChangePercent(110.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(RelativeChangePercent(90.0, 100.0), -10.0);
  EXPECT_DOUBLE_EQ(RelativeChangePercent(5.0, 0.0), 0.0);
}

TEST(BenchFlagsTest, PickRepsHonorsOverrides) {
  BenchFlags flags;
  EXPECT_EQ(PickReps(flags, 5, 50), 5);
  flags.full = true;
  EXPECT_EQ(PickReps(flags, 5, 50), 50);
  flags.reps = 12;
  EXPECT_EQ(PickReps(flags, 5, 50), 12);
}

TEST(BenchFlagsTest, PickFunctionsDefaults) {
  BenchFlags flags;
  const auto quick = PickFunctions(flags);
  EXPECT_EQ(quick.size(), 8u);
  flags.full = true;
  EXPECT_EQ(PickFunctions(flags).size(), 33u);
  flags.functions = {"morris"};
  EXPECT_EQ(PickFunctions(flags), std::vector<std::string>{"morris"});
}

}  // namespace
}  // namespace reds::exp
