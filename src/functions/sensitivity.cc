// Sensitivity-analysis benchmarks: the classic 20-input Morris function and
// Sobol' g-function (exact published forms), plus faithful-structure
// implementations of morretal06, soblev99 and oakoh04 whose original
// coefficient tables are not available offline (see DESIGN.md).
#include <cmath>

#include "functions/registry.h"

namespace reds::fun {

namespace {

// --- morris: Saltelli/Morris screening function, 20 inputs, exact form. ---
// First- and second-order coefficients, tabulated so the evaluation loops
// carry no per-term branches (test-set generation spends its time here).
struct MorrisBetas {
  double first[20] = {};
  double second[20][20] = {};
};

constexpr MorrisBetas MakeMorrisBetas() {
  MorrisBetas b;
  for (int i = 0; i < 20; ++i) {
    b.first[i] = i < 10 ? 20.0 : ((i + 1) % 2 == 0 ? 1.0 : -1.0);
    for (int j = 0; j < 20; ++j) {
      b.second[i][j] =
          (i < 6 && j < 6) ? -15.0 : ((i + j + 2) % 2 == 0 ? 1.0 : -1.0);
    }
  }
  return b;
}

constexpr MorrisBetas kMorrisBetas = MakeMorrisBetas();

class Morris final : public DeterministicFunction {
 public:
  std::string name() const override { return "morris"; }
  int dim() const override { return 20; }
  std::vector<bool> relevant() const override {
    return std::vector<bool>(20, true);
  }
  double target_share() const override { return 0.301; }

  double Raw(const double* x) const override {
    double w[20];
    for (int i = 0; i < 20; ++i) w[i] = 2.0 * (x[i] - 0.5);
    // 1-indexed inputs 3, 5, 7 get the nonlinear warp.
    for (int i : {2, 4, 6}) w[i] = 2.0 * (1.1 * x[i] / (x[i] + 0.1) - 0.5);
    double y = 0.0;
    for (int i = 0; i < 20; ++i) y += kMorrisBetas.first[i] * w[i];
    for (int i = 0; i < 20; ++i) {
      for (int j = i + 1; j < 20; ++j) {
        y += kMorrisBetas.second[i][j] * w[i] * w[j];
      }
    }
    for (int i = 0; i < 5; ++i) {
      for (int j = i + 1; j < 5; ++j) {
        for (int l = j + 1; l < 5; ++l) {
          y += -10.0 * w[i] * w[j] * w[l];
        }
      }
    }
    y += 5.0 * w[0] * w[1] * w[2] * w[3];
    return y;
  }
};

// --- sobol: g-function with a = (0, 1, 4.5, 9, 99, 99, 99, 99). ---
class SobolG final : public DeterministicFunction {
 public:
  std::string name() const override { return "sobol"; }
  int dim() const override { return 8; }
  std::vector<bool> relevant() const override {
    return std::vector<bool>(8, true);
  }
  double target_share() const override { return 0.392; }
  double Raw(const double* x) const override {
    static constexpr double a[8] = {0.0, 1.0, 4.5, 9.0, 99.0, 99.0, 99.0, 99.0};
    double prod = 1.0;
    for (int j = 0; j < 8; ++j) {
      prod *= (std::fabs(4.0 * x[j] - 2.0) + a[j]) / (1.0 + a[j]);
    }
    return prod;
  }
};

// --- welchetal92: Welch et al. 1992 screening function, exact form;
// inputs 8 and 16 (1-indexed) are inert, giving I = 18. ---
class Welch92 final : public DeterministicFunction {
 public:
  std::string name() const override { return "welchetal92"; }
  int dim() const override { return 20; }
  std::vector<bool> relevant() const override {
    std::vector<bool> rel(20, true);
    rel[7] = false;   // x8
    rel[15] = false;  // x16
    return rel;
  }
  double target_share() const override { return 0.356; }
  double Raw(const double* u) const override {
    double x[20];
    for (int j = 0; j < 20; ++j) x[j] = u[j] - 0.5;  // native domain [-0.5, 0.5]
    return 5.0 * x[11] / (1.0 + x[0]) + 5.0 * (x[3] - x[19]) * (x[3] - x[19]) +
           x[4] + 40.0 * x[18] * x[18] * x[18] - 5.0 * x[18] + 0.05 * x[1] +
           0.08 * x[2] - 0.03 * x[5] + 0.03 * x[6] - 0.09 * x[8] -
           0.01 * x[9] - 0.07 * x[10] + 0.25 * x[12] * x[12] - 0.04 * x[13] +
           0.06 * x[14] - 0.01 * x[16] - 0.03 * x[17];
  }
};

// --- morretal06: Morris/Moore/McKay 2006 family -- additive main effects on
// the first 10 of 30 inputs plus pairwise interactions among them. ---
class Morris06 final : public DeterministicFunction {
 public:
  std::string name() const override { return "morretal06"; }
  int dim() const override { return 30; }
  std::vector<bool> relevant() const override {
    std::vector<bool> rel(30, false);
    for (int j = 0; j < 10; ++j) rel[static_cast<size_t>(j)] = true;
    return rel;
  }
  double target_share() const override { return 0.345; }
  double Raw(const double* x) const override {
    double y = 0.0;
    for (int i = 0; i < 10; ++i) y += x[i];
    for (int i = 0; i < 10; ++i) {
      for (int j = i + 1; j < 10; ++j) y -= 0.6 * x[i] * x[j];
    }
    return y;
  }
};

// --- soblev99: Sobol-Levitan exp(sum b_j x_j) - I0 with a fixed decreasing
// coefficient vector; b_20 = 0 gives I = 19. ---
class SobolLevitan99 final : public DeterministicFunction {
 public:
  SobolLevitan99() {
    for (int j = 0; j < 19; ++j) {
      // Deterministic decreasing weights in (0, 0.66]: strong first inputs,
      // long relevant tail (matching the published I = 19).
      b_[j] = 0.65 * std::pow(0.85, j) + 0.01;
    }
    b_[19] = 0.0;
    i0_ = 1.0;
    for (int j = 0; j < 20; ++j) {
      i0_ *= b_[j] > 0.0 ? (std::exp(b_[j]) - 1.0) / b_[j] : 1.0;
    }
  }
  std::string name() const override { return "soblev99"; }
  int dim() const override { return 20; }
  std::vector<bool> relevant() const override {
    std::vector<bool> rel(20, true);
    rel[19] = false;
    return rel;
  }
  double target_share() const override { return 0.413; }
  double Raw(const double* x) const override {
    double s = 0.0;
    for (int j = 0; j < 20; ++j) s += b_[j] * x[j];
    return std::exp(s) - i0_;
  }

 private:
  double b_[20];
  double i0_ = 1.0;
};

// --- oakoh04: Oakley-O'Hagan form a1'x + a2'sin(x) + a3'cos(x) + x'Mx with
// seeded coefficients (original 15x15 table not available offline). ---
class OakleyOHagan04 final : public DeterministicFunction {
 public:
  OakleyOHagan04() {
    Rng rng(0x0a0b04ULL);
    for (int j = 0; j < 15; ++j) {
      // Mimic the original's three effect tiers: weak, medium, strong.
      const double tier = j < 5 ? 0.12 : (j < 10 ? 0.6 : 1.4);
      a1_[j] = tier * rng.Uniform(-1.0, 1.0);
      a2_[j] = tier * rng.Uniform(-1.0, 1.0);
      a3_[j] = tier * rng.Uniform(-1.0, 1.0);
      for (int k = 0; k < 15; ++k) m_[j][k] = 0.25 * rng.Uniform(-1.0, 1.0);
    }
  }
  std::string name() const override { return "oakoh04"; }
  int dim() const override { return 15; }
  std::vector<bool> relevant() const override {
    return std::vector<bool>(15, true);
  }
  double target_share() const override { return 0.249; }
  double Raw(const double* u) const override {
    double x[15];
    for (int j = 0; j < 15; ++j) x[j] = -2.0 + 4.0 * u[j];
    double y = 0.0;
    for (int j = 0; j < 15; ++j) {
      y += a1_[j] * x[j] + a2_[j] * std::sin(x[j]) + a3_[j] * std::cos(x[j]);
    }
    for (int j = 0; j < 15; ++j) {
      double row = 0.0;
      for (int k = 0; k < 15; ++k) row += m_[j][k] * x[k];
      y += x[j] * row;
    }
    return y;
  }

 private:
  double a1_[15], a2_[15], a3_[15];
  double m_[15][15];
};

}  // namespace

std::unique_ptr<TestFunction> MakeMorris() { return std::make_unique<Morris>(); }
std::unique_ptr<TestFunction> MakeSobolG() { return std::make_unique<SobolG>(); }
std::unique_ptr<TestFunction> MakeWelch92() { return std::make_unique<Welch92>(); }
std::unique_ptr<TestFunction> MakeMorris06() { return std::make_unique<Morris06>(); }
std::unique_ptr<TestFunction> MakeSobolLevitan99() {
  return std::make_unique<SobolLevitan99>();
}
std::unique_ptr<TestFunction> MakeOakleyOHagan04() {
  return std::make_unique<OakleyOHagan04>();
}

}  // namespace reds::fun
