// Tests for util: RNG determinism and distributions, special functions,
// table/CSV formatting, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "util/rng.h"
#include "util/special.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace reds {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.Next() == b.Next() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanAndVariance) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.Uniform();
    sum += u;
    sum_sq += u * u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
  EXPECT_NEAR(sum_sq / n - 0.25, 1.0 / 12.0, 0.01);
}

TEST(RngTest, UniformIntInRangeAndRoughlyUniform) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t v = rng.UniformInt(10);
    ASSERT_LT(v, 10u);
    counts[static_cast<size_t>(v)]++;
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double z = rng.Normal();
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, LogitNormalSupport) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.LogitNormal(0.0, 1.0);
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, BootstrapIndicesInRange) {
  Rng rng(31);
  const auto idx = rng.BootstrapIndices(50);
  EXPECT_EQ(idx.size(), 50u);
  for (int i : idx) {
    EXPECT_GE(i, 0);
    EXPECT_LT(i, 50);
  }
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(37);
  const auto idx = rng.SampleWithoutReplacement(20, 10);
  EXPECT_EQ(idx.size(), 10u);
  std::set<int> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 10u);
  for (int i : idx) {
    EXPECT_GE(i, 0);
    EXPECT_LT(i, 20);
  }
}

TEST(RngTest, DeriveSeedDecorrelatesStreams) {
  const uint64_t a = DeriveSeed(42, 1);
  const uint64_t b = DeriveSeed(42, 2);
  EXPECT_NE(a, b);
  EXPECT_NE(a, DeriveSeed(43, 1));
}

TEST(SpecialTest, NormalCdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(NormalCdf(-1.959963985), 0.025, 1e-6);
}

TEST(SpecialTest, NormalQuantileInvertsCdf) {
  for (double p : {0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-6) << p;
  }
}

TEST(SpecialTest, ChiSquaredCdfKnownValues) {
  // chi2(df=1): P(X <= 3.841) ~ 0.95.
  EXPECT_NEAR(ChiSquaredCdf(3.841459, 1.0), 0.95, 1e-4);
  // chi2(df=5): P(X <= 11.0705) ~ 0.95.
  EXPECT_NEAR(ChiSquaredCdf(11.0705, 5.0), 0.95, 1e-4);
  EXPECT_DOUBLE_EQ(ChiSquaredCdf(0.0, 3.0), 0.0);
}

TEST(SpecialTest, RegularizedGammaComplement) {
  for (double a : {0.5, 1.0, 2.5, 10.0}) {
    for (double x : {0.1, 1.0, 5.0, 20.0}) {
      EXPECT_NEAR(RegularizedGammaP(a, x) + RegularizedGammaQ(a, x), 1.0, 1e-10);
    }
  }
}

TEST(SpecialTest, TwoSidedPValue) {
  EXPECT_NEAR(TwoSidedNormalPValue(0.0), 1.0, 1e-12);
  EXPECT_NEAR(TwoSidedNormalPValue(1.959963985), 0.05, 1e-5);
}

TEST(TableTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(41.30, 2), "41.3");
  EXPECT_EQ(FormatDouble(7.0, 3), "7");
  EXPECT_EQ(FormatDouble(0.080, 2), "0.08");
  EXPECT_EQ(FormatDouble(-0.0001, 2), "0");
}

TEST(TableTest, AlignsColumns) {
  TablePrinter t("demo");
  t.SetHeader({"name", "value"});
  t.AddRow("alpha", {1.5});
  t.AddRow("beta", {22.25});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.25"), std::string::npos);
}

TEST(CsvTest, WritesFile) {
  CsvWriter csv({"a", "b"});
  csv.AddRow({1.0, 2.0});
  csv.AddRow({3.5, -1.0});
  const std::string path = "/tmp/reds_csv_test.csv";
  ASSERT_TRUE(csv.WriteFile(path).ok());
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a,b");
  std::getline(f, line);
  EXPECT_EQ(line, "1,2");
  std::remove(path.c_str());
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  EXPECT_EQ(Status::OK().ToString(), "OK");
  const Status s = Status::InvalidArgument("bad x");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("INVALID_ARGUMENT"), std::string::npos);
  EXPECT_NE(s.ToString().find("bad x"), std::string::npos);
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  Result<int> bad(Status::OutOfRange("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), Status::Code::kOutOfRange);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), 1000);
  }
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(0, 64, [&](int i) { hits[static_cast<size_t>(i)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace reds
