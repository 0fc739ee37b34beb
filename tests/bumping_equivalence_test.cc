// Bitwise equivalence of PRIM with bumping against the straightforward
// implementation in reference_bumping.h: replicate indexes derived from one
// presorted index by row multiplicity, nested trajectory scoring, the
// sort-and-sweep Pareto filter, replicates on idle cores, and the
// edge-anchored binned peel must give the oracle's boxes and curves to the
// bit -- across test functions, seeds, every m of the paper's grid, {0,1}
// and fractional labels, and tie-heavy columns holding both -0.0 and +0.0.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/bumping.h"
#include "core/column_index.h"
#include "core/method.h"
#include "core/quality.h"
#include "functions/datagen.h"
#include "functions/registry.h"
#include "hold_slots.h"
#include "reference_bumping.h"
#include "util/rng.h"

namespace reds {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBox(const Box& a, const Box& b) {
  if (a.dim() != b.dim()) return false;
  for (int j = 0; j < a.dim(); ++j) {
    if (!SameBits(a.lo(j), b.lo(j)) || !SameBits(a.hi(j), b.hi(j))) {
      return false;
    }
  }
  return true;
}

void ExpectSameBumping(const BumpingResult& ref, const BumpingResult& opt,
                       const std::string& label) {
  ASSERT_EQ(ref.boxes.size(), opt.boxes.size()) << label;
  ASSERT_EQ(ref.val_curve.size(), opt.val_curve.size()) << label;
  for (size_t i = 0; i < ref.boxes.size(); ++i) {
    EXPECT_TRUE(SameBox(ref.boxes[i], opt.boxes[i])) << label << " box " << i;
    EXPECT_TRUE(SameBits(ref.val_curve[i].recall, opt.val_curve[i].recall))
        << label << " box " << i;
    EXPECT_TRUE(
        SameBits(ref.val_curve[i].precision, opt.val_curve[i].precision))
        << label << " box " << i;
  }
}

// Fractional labels in [0, 1] with the same signal as the 0/1 ones.
Dataset Fractional(const Dataset& d, uint64_t seed) {
  Rng rng(seed);
  Dataset out(d.num_cols());
  for (int r = 0; r < d.num_rows(); ++r) {
    out.AddRow(d.row(r), 0.2 + 0.6 * d.y(r) * rng.Uniform());
  }
  return out;
}

// Tie-heavy data: column 0 is continuous, column 1 takes 5 values, column
// 2 mixes -0.0, +0.0 and 1.0, column 3 is constant but for a few rows, and
// column 4 is capped so its top fifth is one tied value.
Dataset TiedData(int n, uint64_t seed) {
  Rng rng(seed);
  Dataset d(5);
  for (int i = 0; i < n; ++i) {
    const double u = rng.Uniform();
    const double x[5] = {
        u,
        static_cast<double>(rng.UniformInt(5)) / 4.0,
        rng.Bernoulli(0.5) ? (rng.Bernoulli(0.5) ? -0.0 : 0.0) : 1.0,
        rng.Bernoulli(0.05) ? rng.Uniform() : 0.5,
        std::min(rng.Uniform(), 0.8)};
    const double p = (u < 0.5 && x[1] > 0.3) || x[4] == 0.8 ? 0.8 : 0.15;
    d.AddRow(x, rng.Bernoulli(p) ? 1.0 : 0.0);
  }
  return d;
}

TEST(BumpingEquivalenceTest, MatchesReferenceOverFunctionsSeedsAndMGrid) {
  const char* functions[] = {"morris", "dsgc",    "borehole", "ishigami",
                             "sobol",  "ellipse", "dalal3",   "moon10hdc1"};
  for (const char* name : functions) {
    auto fn = fun::MakeFunction(name).value();
    for (uint64_t seed : {1u, 2u}) {
      const Dataset d = fun::MakeScenarioDataset(
          *fn, 240, fun::DefaultDesignFor(*fn), 100 + seed);
      const Dataset val = fun::MakeScenarioDataset(
          *fn, 300, fun::DefaultDesignFor(*fn), 200 + seed);
      for (bool fractional : {false, true}) {
        const Dataset train = fractional ? Fractional(d, seed) : d;
        for (int m : MGrid(train.num_cols())) {
          BumpingConfig config;
          config.q = 6;
          config.m = m;
          // The oracle peels with the sorted kernel, so the binned kernel's
          // edge-anchored walks are checked against it too.
          const std::string label = std::string(name) +
                                    " seed=" + std::to_string(seed) +
                                    " m=" + std::to_string(m) +
                                    (fractional ? " fractional" : " 0/1");
          ExpectSameBumping(
              reference::RunPrimBumpingReference(train, val, config, 7),
              RunPrimBumping(train, val, config, 7), label);
        }
      }
    }
  }
}

TEST(BumpingEquivalenceTest, MatchesReferenceOnTiesAndSignedZeros) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    const Dataset d = TiedData(300, seed);
    for (bool fractional : {false, true}) {
      const Dataset train = fractional ? Fractional(d, seed) : d;
      for (int m : {1, 2, 3, 5}) {
        for (double alpha : {0.05, 0.2}) {
          BumpingConfig config;
          config.q = 8;
          config.m = m;
          config.prim.alpha = alpha;
          config.prim.min_points = 5;
          const std::string label = "seed=" + std::to_string(seed) +
                                    " m=" + std::to_string(m) +
                                    " alpha=" + std::to_string(alpha) +
                                    (fractional ? " fractional" : " 0/1");
          // Index handed in (the engine's and the CV folds' path) and built
          // privately must both match.
          const auto index = ColumnIndex::Build(train);
          const BumpingResult ref =
              reference::RunPrimBumpingReference(train, train, config, seed);
          ExpectSameBumping(ref, RunPrimBumping(train, train, config, seed),
                            label);
          ExpectSameBumping(
              ref, RunPrimBumping(train, train, config, seed, index.get()),
              label + " prebuilt index");
        }
      }
    }
  }
}

TEST(BumpingEquivalenceTest, PastingAndDegenerateSamples) {
  // Pasting appends a non-nested box to each replicate's trajectory; a
  // nearly all-negative dataset makes some bootstrap samples degenerate.
  const Dataset d = TiedData(250, 21);
  BumpingConfig config;
  config.q = 6;
  config.m = 3;
  config.prim.paste = true;
  ExpectSameBumping(reference::RunPrimBumpingReference(d, d, config, 3),
                    RunPrimBumping(d, d, config, 3), "paste");

  Dataset sparse(2);
  for (int i = 0; i < 30; ++i) {
    const double x[2] = {i / 30.0, (i * 7 % 30) / 30.0};
    sparse.AddRow(x, i == 4 ? 1.0 : 0.0);
  }
  BumpingConfig small;
  small.q = 12;
  small.prim.min_points = 3;
  ExpectSameBumping(
      reference::RunPrimBumpingReference(sparse, sparse, small, 5),
      RunPrimBumping(sparse, sparse, small, 5), "degenerate");

  Dataset negative(2);
  for (int i = 0; i < 20; ++i) {
    const double x[2] = {i / 20.0, 0.5};
    negative.AddRow(x, 0.0);
  }
  ExpectSameBumping(
      reference::RunPrimBumpingReference(negative, negative, small, 5),
      RunPrimBumping(negative, negative, small, 5), "all degenerate");
}

TEST(BumpingEquivalenceTest, IdleAndBusyCoresGiveTheSameResult) {
  auto fn = fun::MakeFunction("morris").value();
  const Dataset d =
      fun::MakeScenarioDataset(*fn, 320, fun::DefaultDesignFor(*fn), 9);
  BumpingConfig config;
  config.q = 20;
  config.m = 10;
  const BumpingResult idle = RunPrimBumping(d, d, config, 4);
  BumpingResult busy;
  {
    HoldAllSlots hold;
    busy = RunPrimBumping(d, d, config, 4);
  }
  ExpectSameBumping(idle, busy, "idle vs busy");
}

void ExpectSameStats(const Dataset& d, const std::vector<Box>& boxes,
                     const std::string& label) {
  const std::vector<BoxStats> stats = TrajectoryStats(d, boxes);
  ASSERT_EQ(stats.size(), boxes.size()) << label;
  for (size_t k = 0; k < boxes.size(); ++k) {
    const BoxStats ref = ComputeBoxStats(d, boxes[k]);
    EXPECT_TRUE(SameBits(ref.n, stats[k].n)) << label << " box " << k;
    EXPECT_TRUE(SameBits(ref.n_pos, stats[k].n_pos)) << label << " box " << k;
  }
  EXPECT_TRUE(SameBits(reference::PrAucOnDataReference(boxes, d),
                       PrAucOnData(boxes, d)))
      << label;
}

TEST(TrajectoryStatsTest, MatchesPerBoxStatsOnNestedAndOtherSequences) {
  const Dataset d = Fractional(TiedData(400, 31), 31);
  PrimConfig config;
  config.min_points = 5;
  PrimConfig paste_config = config;
  paste_config.paste = true;
  BumpingConfig bconfig;
  bconfig.q = 10;
  bconfig.m = 2;
  const std::vector<Box> trajectory = RunPrim(d, d, config).boxes;
  const std::vector<Box> pasted = RunPrim(d, d, paste_config).ReturnedBoxes();
  const std::vector<Box> pareto = RunPrimBumping(d, d, bconfig, 1).boxes;
  // 0/1 and fractional labels on the scored data.
  for (const Dataset& val :
       {TiedData(350, 32), Fractional(TiedData(350, 32), 33)}) {
    // Nested: a PRIM trajectory, and the same with pasting (last box grows).
    ExpectSameStats(val, trajectory, "trajectory");
    ExpectSameStats(val, pasted, "pasted");
    // Not nested: a bumping Pareto set (recall-descending).
    ExpectSameStats(val, pareto, "bumping");
  }
  const Dataset val = TiedData(350, 32);

  // Repeated, empty (lo > hi) and NaN-bounded boxes, and a box that grows
  // back after them.
  Box a = Box::Unbounded(5);
  Box b = a;
  b.set_lo(0, 0.2);
  b.set_hi(1, 0.5);
  Box empty = b;
  empty.set_lo(4, 0.9);
  empty.set_hi(4, 0.1);
  Box nan_lo = b;
  nan_lo.set_lo(2, kNaN);
  Box nan_hi = b;
  nan_hi.set_hi(3, kNaN);
  Box zero = b;
  zero.set_hi(2, -0.0);
  Box pos_zero = b;
  pos_zero.set_hi(2, 0.0);
  ExpectSameStats(val, {a, b, b, empty, empty, b}, "empty");
  ExpectSameStats(val, {a, b, nan_lo, nan_lo, b, nan_hi}, "nan bounds");
  ExpectSameStats(val, {a, zero, pos_zero, zero, a}, "signed zero");
  ExpectSameStats(val, {}, "no boxes");
  ExpectSameStats(Dataset(5), {a, b}, "no rows");
}

std::vector<PrPoint> RandomCloud(Rng* rng, int n) {
  // Coordinates from a small grid so ties, duplicates and equal-recall runs
  // are common; some precisions are NaN, some zeros negative.
  std::vector<PrPoint> cloud;
  for (int i = 0; i < n; ++i) {
    PrPoint p;
    p.recall = static_cast<double>(rng->UniformInt(6)) / 5.0;
    p.precision = static_cast<double>(rng->UniformInt(6)) / 5.0;
    if (rng->Bernoulli(0.1)) p.precision = kNaN;
    if (rng->Bernoulli(0.03)) p.recall = kNaN;
    if (p.recall == 0.0 && rng->Bernoulli(0.5)) p.recall = -0.0;
    if (p.precision == 0.0 && rng->Bernoulli(0.5)) p.precision = -0.0;
    if (rng->Bernoulli(0.05)) p.precision = -kInf;
    cloud.push_back(p);
  }
  return cloud;
}

TEST(ParetoFilterEquivalenceTest, MatchesPairwiseFilterOnRandomClouds) {
  Rng rng(77);
  for (int trial = 0; trial < 400; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(40));
    std::vector<PrPoint> curve = RandomCloud(&rng, n);
    std::vector<Box> boxes;
    for (int i = 0; i < n; ++i) {
      Box tag = Box::Unbounded(1);
      tag.set_lo(0, i);  // identifies the survivor
      boxes.push_back(tag);
    }
    std::vector<Box> ref_boxes = boxes;
    std::vector<PrPoint> ref_curve = curve;
    reference::ParetoFilterReference(&ref_boxes, &ref_curve);
    ParetoFilter(&boxes, &curve);
    ASSERT_EQ(ref_boxes.size(), boxes.size()) << "trial " << trial;
    for (size_t i = 0; i < boxes.size(); ++i) {
      EXPECT_TRUE(SameBox(ref_boxes[i], boxes[i])) << "trial " << trial;
      EXPECT_TRUE(SameBits(ref_curve[i].recall, curve[i].recall));
      EXPECT_TRUE(SameBits(ref_curve[i].precision, curve[i].precision));
    }
  }
}

TEST(BootstrapIndexTest, MatchesBuildOfTheMaterializedSample) {
  for (uint64_t seed : {41u, 42u, 43u}) {
    const Dataset d = TiedData(200, seed);
    const auto base = ColumnIndex::Build(d);
    Rng rng(seed);
    for (int trial = 0; trial < 10; ++trial) {
      // Bootstrap draws, plus a short sample and one repeating a row.
      std::vector<int> rows = rng.BootstrapIndices(d.num_rows());
      if (trial == 8) rows.resize(7);
      if (trial == 9) rows.assign(50, 3);
      std::vector<int> columns = rng.SampleWithoutReplacement(
          d.num_cols(), 1 + static_cast<int>(rng.UniformInt(5)));
      std::sort(columns.begin(), columns.end());
      const auto want =
          ColumnIndex::Build(d.SubsetRows(rows).SelectColumns(columns));
      const auto got = ColumnIndex::BuildBootstrap(*base, rows, columns);
      ASSERT_EQ(want->num_rows(), got->num_rows());
      ASSERT_EQ(want->num_cols(), got->num_cols());
      for (int j = 0; j < got->num_cols(); ++j) {
        EXPECT_EQ(want->sorted_rows(j), got->sorted_rows(j))
            << "seed " << seed << " trial " << trial << " col " << j;
        for (int r = 0; r < got->num_rows(); ++r) {
          EXPECT_TRUE(SameBits(want->column(j)[static_cast<size_t>(r)],
                               got->column(j)[static_cast<size_t>(r)]));
        }
      }
    }
  }
}

}  // namespace
}  // namespace reds
