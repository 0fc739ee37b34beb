// Physical sanity checks for the published-formula simulation models: known
// monotonicities and symmetries that pin down correct implementations
// (catching sign errors threshold calibration would hide).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "functions/registry.h"

namespace reds::fun {
namespace {

// Raw value of a deterministic function at a point given as unit-cube coords.
double RawAt(const TestFunction& f, std::vector<double> x) {
  const auto* det = dynamic_cast<const DeterministicFunction*>(&f);
  EXPECT_NE(det, nullptr);
  return det->Raw(x.data());
}

TEST(BoreholePhysicsTest, FlowIncreasesWithHeadDifference) {
  auto f = MakeFunction("borehole").value();
  // Input 3 is Hu (upper head), input 5 is Hl (lower head).
  std::vector<double> base(8, 0.5);
  std::vector<double> high_hu = base;
  high_hu[3] = 0.9;
  std::vector<double> high_hl = base;
  high_hl[5] = 0.9;
  EXPECT_GT(RawAt(*f, high_hu), RawAt(*f, base));
  EXPECT_LT(RawAt(*f, high_hl), RawAt(*f, base));
}

TEST(BoreholePhysicsTest, FlowIncreasesWithWellRadius) {
  auto f = MakeFunction("borehole").value();
  std::vector<double> narrow(8, 0.5), wide(8, 0.5);
  narrow[0] = 0.1;
  wide[0] = 0.9;
  EXPECT_GT(RawAt(*f, wide), RawAt(*f, narrow));
}

TEST(PistonPhysicsTest, HeavierPistonCyclesSlower) {
  auto f = MakeFunction("piston").value();
  std::vector<double> light(7, 0.5), heavy(7, 0.5);
  light[0] = 0.0;
  heavy[0] = 1.0;
  EXPECT_GT(RawAt(*f, heavy), RawAt(*f, light));  // longer cycle time
}

TEST(PistonPhysicsTest, StifferSpringCyclesFaster) {
  auto f = MakeFunction("piston").value();
  std::vector<double> soft(7, 0.5), stiff(7, 0.5);
  soft[3] = 0.1;
  stiff[3] = 0.9;
  EXPECT_LT(RawAt(*f, stiff), RawAt(*f, soft));
}

TEST(WingWeightPhysicsTest, WeightIncreasesWithAreaAndLoadFactor) {
  auto f = MakeFunction("wingweight").value();
  std::vector<double> base(10, 0.5);
  std::vector<double> big_wing = base;
  big_wing[0] = 0.95;  // S_w
  std::vector<double> high_nz = base;
  high_nz[7] = 0.95;  // ultimate load factor
  EXPECT_GT(RawAt(*f, big_wing), RawAt(*f, base));
  EXPECT_GT(RawAt(*f, high_nz), RawAt(*f, base));
}

TEST(OtlPhysicsTest, OutputVoltageRisesWithRb2) {
  auto f = MakeFunction("otlcircuit").value();
  std::vector<double> low(6, 0.5), high(6, 0.5);
  low[1] = 0.1;
  high[1] = 0.9;
  EXPECT_GT(RawAt(*f, high), RawAt(*f, low));
}

TEST(IshigamiPhysicsTest, KnownValues) {
  auto f = MakeFunction("ishigami").value();
  // At x = (0.5, 0.5, 0.5) in unit coords, all native inputs are 0:
  // f = sin(0) + 7 sin^2(0) + 0.1 * 0 * sin(0) = 0.
  EXPECT_NEAR(RawAt(*f, {0.5, 0.5, 0.5}), 0.0, 1e-12);
  // At native x1 = pi/2 (u1 = 0.75), x2 = 0, x3 = 0: f = 1.
  EXPECT_NEAR(RawAt(*f, {0.75, 0.5, 0.5}), 1.0, 1e-9);
}

TEST(IshigamiPhysicsTest, SymmetricInSecondInputSign) {
  auto f = MakeFunction("ishigami").value();
  // sin^2 makes f even in x2 around 0 (u2 = 0.5).
  EXPECT_NEAR(RawAt(*f, {0.3, 0.7, 0.6}), RawAt(*f, {0.3, 0.3, 0.6}), 1e-9);
}

TEST(SobolGPhysicsTest, KnownValuesAndSensitivityOrder) {
  auto f = MakeFunction("sobol").value();
  // At x_j = 0.5 every factor is a_j/(1+a_j).
  double expected = 1.0;
  const double a[8] = {0, 1, 4.5, 9, 99, 99, 99, 99};
  for (double aj : a) expected *= aj / (1.0 + aj);
  EXPECT_NEAR(RawAt(*f, std::vector<double>(8, 0.5)), expected, 1e-12);
  // Moving x1 (a=0) changes f far more than moving x8 (a=99).
  std::vector<double> base(8, 0.5);
  std::vector<double> move1 = base, move8 = base;
  move1[0] = 1.0;
  move8[7] = 1.0;
  const double f0 = RawAt(*f, base);
  EXPECT_GT(std::fabs(RawAt(*f, move1) - f0),
            10.0 * std::fabs(RawAt(*f, move8) - f0));
}

TEST(MorrisPhysicsTest, FirstTenInputsDominate) {
  auto f = MakeFunction("morris").value();
  // beta_i = 20 for i < 10 vs |beta_i| = 1 afterwards: perturbing x1 must
  // move the output far more than perturbing x20.
  std::vector<double> base(20, 0.5);
  std::vector<double> move1 = base, move20 = base;
  move1[0] = 0.9;
  move20[19] = 0.9;
  const double f0 = RawAt(*f, base);
  EXPECT_GT(std::fabs(RawAt(*f, move1) - f0),
            5.0 * std::fabs(RawAt(*f, move20) - f0));
}

// The published formula term by term, in the library's summation order:
// the tabulated evaluation must reproduce it bit for bit.
double MorrisFormula(const double* x) {
  double w[20];
  for (int i = 0; i < 20; ++i) {
    w[i] = (i == 2 || i == 4 || i == 6) ? 2.0 * (1.1 * x[i] / (x[i] + 0.1) - 0.5)
                                        : 2.0 * (x[i] - 0.5);
  }
  double y = 0.0;
  for (int i = 0; i < 20; ++i) {
    y += (i < 10 ? 20.0 : ((i + 1) % 2 == 0 ? 1.0 : -1.0)) * w[i];
  }
  for (int i = 0; i < 20; ++i) {
    for (int j = i + 1; j < 20; ++j) {
      y += ((i < 6 && j < 6) ? -15.0 : ((i + j + 2) % 2 == 0 ? 1.0 : -1.0)) *
           w[i] * w[j];
    }
  }
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) {
      for (int l = j + 1; l < 5; ++l) y += -10.0 * w[i] * w[j] * w[l];
    }
  }
  return y + 5.0 * w[0] * w[1] * w[2] * w[3];
}

TEST(MorrisPhysicsTest, MatchesThePublishedFormulaBitForBit) {
  auto f = MakeFunction("morris").value();
  std::vector<double> x(20);
  for (int k = 0; k < 2000; ++k) {
    for (int i = 0; i < 20; ++i) {
      x[static_cast<size_t>(i)] = std::fmod(0.618034 * (k * 20 + i + 1), 1.0);
    }
    if (k == 0) x.assign(20, 0.0);
    if (k == 1) x.assign(20, 1.0);
    const double expected = MorrisFormula(x.data());
    const double got = RawAt(*f, x);
    EXPECT_EQ(std::memcmp(&expected, &got, sizeof(double)), 0) << "point " << k;
  }
}

TEST(Welch92PhysicsTest, InertInputsAreExactlyInert) {
  auto f = MakeFunction("welchetal92").value();
  std::vector<double> a(20, 0.3), b(20, 0.3);
  b[7] = 0.9;   // x8
  b[15] = 0.9;  // x16
  EXPECT_DOUBLE_EQ(RawAt(*f, a), RawAt(*f, b));
}

TEST(Hart6PhysicsTest, GlobalMinimumRegionIsLow) {
  auto f = MakeFunction("hart6sc").value();
  // The Hartmann-6 minimizer (published): raw value there must be below the
  // value at the cube center.
  const std::vector<double> minimizer{0.20169, 0.150011, 0.476874,
                                      0.275332, 0.311652, 0.6573};
  EXPECT_LT(RawAt(*f, minimizer), RawAt(*f, std::vector<double>(6, 0.5)));
}

TEST(EllipsePhysicsTest, CenterIsLowRegion) {
  auto f = MakeFunction("ellipse").value();
  // f is a positive quadratic away from its center c in the first 10 dims;
  // the raw value at any point is >= 0 and grows toward the corners.
  const double corner = RawAt(*f, std::vector<double>(15, 0.999));
  const double mid = RawAt(*f, std::vector<double>(15, 0.5));
  EXPECT_GE(mid, 0.0);
  EXPECT_GT(corner, mid);
}

}  // namespace
}  // namespace reds::fun
