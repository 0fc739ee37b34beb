// Tests for the CART regression tree.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "ml/cart.h"
#include "ml/order_partition.h"
#include "reference_partition.h"
#include "util/rng.h"

namespace reds::ml {
namespace {

Dataset StepData(int n, uint64_t seed) {
  // y = 1 iff x0 > 0.5, one clean axis-aligned step.
  Rng rng(seed);
  Dataset d(2);
  for (int i = 0; i < n; ++i) {
    const double x[2] = {rng.Uniform(), rng.Uniform()};
    d.AddRow(x, x[0] > 0.5 ? 1.0 : 0.0);
  }
  return d;
}

// Runs the library partition and the stable_partition oracle on copies of
// `orders` and demands identical arrays.
void ExpectPartitionMatchesOracle(const std::vector<std::vector<int>>& orders,
                                  int begin, int end,
                                  const std::vector<uint8_t>& goes_left) {
  std::vector<std::vector<int>> got = orders;
  std::vector<std::vector<int>> want = orders;
  std::vector<int> scratch(static_cast<size_t>(end - begin));
  StablePartitionOrders(&got, begin, end, goes_left, &scratch);
  reference::StablePartitionOrders(&want, begin, end, goes_left);
  EXPECT_EQ(got, want) << "segment [" << begin << ", " << end << ")";
}

// M order arrays, each a random permutation of `entries` (entries may
// repeat, as bootstrap positions do).
std::vector<std::vector<int>> ShuffledOrders(const std::vector<int>& entries,
                                             int m, Rng* rng) {
  std::vector<std::vector<int>> orders(static_cast<size_t>(m), entries);
  for (std::vector<int>& ord : orders) rng->Shuffle(&ord);
  return orders;
}

TEST(OrderPartitionTest, BranchFreePartitionMatchesStablePartition) {
  Rng rng(17);
  constexpr int kEntries = 257;
  std::vector<int> distinct(kEntries);
  for (int i = 0; i < kEntries; ++i) distinct[static_cast<size_t>(i)] = i;
  // Bootstrap-style multiset: every entry drawn with replacement.
  std::vector<int> bootstrap(kEntries);
  for (int& e : bootstrap) e = static_cast<int>(rng.UniformInt(kEntries));

  for (const std::vector<int>* entries : {&distinct, &bootstrap}) {
    const auto orders = ShuffledOrders(*entries, 20, &rng);
    const int n = static_cast<int>(entries->size());
    for (const double p_left : {0.0, 0.03, 0.5, 0.97, 1.0}) {
      std::vector<uint8_t> goes_left(kEntries);
      // Flags other than 0/1 must still count as "left".
      for (uint8_t& f : goes_left) {
        f = rng.Bernoulli(p_left) ? static_cast<uint8_t>(1 + rng.UniformInt(255))
                                  : 0;
      }
      ExpectPartitionMatchesOracle(orders, 0, n, goes_left);
      // Interior sub-segments, including empty and one-entry ones.
      for (const auto& [b, e] : std::vector<std::pair<int, int>>{
               {0, 1}, {5, 5}, {13, 200}, {100, n}, {n - 1, n}}) {
        ExpectPartitionMatchesOracle(orders, b, e, goes_left);
      }
    }
  }
}

TEST(OrderPartitionTest, AllLeftAndAllRightSegmentsStayPut) {
  Rng rng(18);
  std::vector<int> entries(100);
  for (int i = 0; i < 100; ++i) entries[static_cast<size_t>(i)] = i;
  const auto orders = ShuffledOrders(entries, 4, &rng);
  for (const uint8_t flag : {uint8_t{0}, uint8_t{1}}) {
    const std::vector<uint8_t> goes_left(100, flag);
    std::vector<std::vector<int>> got = orders;
    std::vector<int> scratch(60);
    StablePartitionOrders(&got, 20, 80, goes_left, &scratch);
    EXPECT_EQ(got, orders);
    ExpectPartitionMatchesOracle(orders, 20, 80, goes_left);
  }
}

TEST(CartTest, LearnsSingleSplit) {
  const Dataset d = StepData(200, 1);
  RegressionTree tree;
  Rng rng(2);
  TreeConfig config;
  config.max_depth = 1;
  tree.Fit(d, config, &rng);
  const double left[2] = {0.2, 0.5};
  const double right[2] = {0.8, 0.5};
  EXPECT_LT(tree.Predict(left), 0.2);
  EXPECT_GT(tree.Predict(right), 0.8);
  EXPECT_EQ(tree.num_leaves(), 2);
}

TEST(CartTest, PureNodeBecomesLeaf) {
  Dataset d(1);
  for (int i = 0; i < 50; ++i) {
    const double x = i / 50.0;
    d.AddRow(&x, 1.0);
  }
  RegressionTree tree;
  Rng rng(3);
  tree.Fit(d, {}, &rng);
  EXPECT_EQ(tree.num_nodes(), 1);
  const double x = 0.5;
  EXPECT_DOUBLE_EQ(tree.Predict(&x), 1.0);
}

TEST(CartTest, FitsXorWithDepthTwo) {
  Rng rng(4);
  Dataset d(2);
  for (int i = 0; i < 400; ++i) {
    const double x[2] = {rng.Uniform(), rng.Uniform()};
    const bool pos = (x[0] > 0.5) != (x[1] > 0.5);
    d.AddRow(x, pos ? 1.0 : 0.0);
  }
  RegressionTree tree;
  Rng rng2(5);
  tree.Fit(d, {}, &rng2);
  int correct = 0;
  Rng rng3(6);
  for (int i = 0; i < 500; ++i) {
    const double x[2] = {rng3.Uniform(), rng3.Uniform()};
    const bool pos = (x[0] > 0.5) != (x[1] > 0.5);
    const bool pred = tree.Predict(x) > 0.5;
    correct += pred == pos ? 1 : 0;
  }
  EXPECT_GT(correct, 450);
}

TEST(CartTest, MaxDepthIsRespected) {
  const Dataset d = StepData(500, 7);
  RegressionTree tree;
  Rng rng(8);
  TreeConfig config;
  config.max_depth = 3;
  tree.Fit(d, config, &rng);
  EXPECT_LE(tree.depth(), 3);
}

TEST(CartTest, MinSamplesLeafIsRespected) {
  Rng data_rng(9);
  Dataset d(1);
  for (int i = 0; i < 100; ++i) {
    const double x = data_rng.Uniform();
    d.AddRow(&x, data_rng.Bernoulli(0.5) ? 1.0 : 0.0);
  }
  RegressionTree tree;
  Rng rng(10);
  TreeConfig config;
  config.min_samples_leaf = 20;
  tree.Fit(d, config, &rng);
  // With n = 100 and leaves >= 20 points, at most 5 leaves are possible.
  EXPECT_LE(tree.num_leaves(), 5);
}

TEST(CartTest, FitOnRowSubset) {
  const Dataset d = StepData(300, 11);
  std::vector<int> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(i);
  RegressionTree tree;
  Rng rng(12);
  tree.Fit(d, rows, {}, &rng);
  EXPECT_TRUE(tree.fitted());
  const double left[2] = {0.1, 0.1};
  EXPECT_LT(tree.Predict(left), 0.3);
}

TEST(CartTest, MtryOneStillSplits) {
  const Dataset d = StepData(300, 13);
  RegressionTree tree;
  Rng rng(14);
  TreeConfig config;
  config.mtry = 1;
  tree.Fit(d, config, &rng);
  EXPECT_GT(tree.num_nodes(), 1);
}

TEST(CartTest, RegressionTargetsApproximated) {
  // Smooth target: tree mean prediction error should be small.
  Rng rng(15);
  Dataset d(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform();
    d.AddRow(&x, x * x);
  }
  RegressionTree tree;
  Rng rng2(16);
  TreeConfig config;
  config.min_samples_leaf = 10;
  tree.Fit(d, config, &rng2);
  double err = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double x = (i + 0.5) / 100.0;
    err += std::fabs(tree.Predict(&x) - x * x);
  }
  EXPECT_LT(err / 100.0, 0.05);
}

}  // namespace
}  // namespace reds::ml
