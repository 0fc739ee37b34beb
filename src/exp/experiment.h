// Experiment harness: runs a (function x method x N x repetition) matrix
// through the DiscoveryEngine, evaluating every run on an independent test
// set exactly as the paper's methodology prescribes (Section 8: many
// datasets, optimized hyperparameters, independent test data). Every bench
// binary is a thin wrapper over this runner.
#ifndef REDS_EXP_EXPERIMENT_H_
#define REDS_EXP_EXPERIMENT_H_

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/method.h"
#include "engine/discovery_engine.h"
#include "functions/datagen.h"
#include "functions/registry.h"

namespace reds::exp {

/// Metric containers live in the engine's result store; the historical exp
/// names stay valid for the bench binaries.
using MetricSet = engine::MetricSet;
using CellResult = engine::CellResult;

struct ExperimentConfig {
  std::vector<std::string> functions;
  std::vector<std::string> methods;
  std::vector<int> sizes = {400};
  int reps = 5;
  int test_size = 20000;
  /// Overrides the per-function default design (LHS / Halton), e.g. for the
  /// mixed-input and semi-supervised experiments.
  std::optional<fun::DesignKind> design_override;
  RunOptions options;
  int threads = 0;  // 0: hardware concurrency
  uint64_t seed = 42;
};

/// Runs the full matrix. Datasets depend only on (function, N, repetition),
/// so all methods see identical data -- enabling the paired Friedman tests.
class Runner {
 public:
  explicit Runner(ExperimentConfig config) : config_(std::move(config)) {}

  /// Executes all cells; idempotent.
  void Run();

  /// Result accessor (valid after Run()).
  const CellResult& cell(const std::string& function, const std::string& method,
                         int n) const;

  const ExperimentConfig& config() const { return config_; }

  /// Per-function mean of a metric for one method/N, across all configured
  /// functions (a row of the paper's Tables 3/4).
  std::vector<double> FunctionMeans(const std::string& method, int n,
                                    double MetricSet::* field) const;

  /// Mean consistency per function for one method/N.
  std::vector<double> FunctionConsistencies(const std::string& method,
                                            int n) const;

  /// The engine that executed the matrix (valid after Run()); exposes the
  /// result store and metamodel-cache statistics.
  const engine::DiscoveryEngine& discovery_engine() const {
    if (engine_ == nullptr) {
      throw std::logic_error("discovery_engine() before Run()");
    }
    return *engine_;
  }

 private:
  void RunImpl();
  std::string Key(const std::string& function, const std::string& method,
                  int n) const;

  ExperimentConfig config_;
  std::unique_ptr<engine::DiscoveryEngine> engine_;
  bool ran_ = false;
};

/// Seed of the training set of (function index, N, repetition); every
/// method of the matrix sees the dataset this seed generates.
uint64_t TrainingDataSeed(uint64_t seed, size_t function_index, int n,
                          int rep);

/// Seed of a function's shared test set.
uint64_t TestDataSeed(uint64_t seed, size_t function_index);

/// The independent test set of a function: n fresh points of `design`,
/// labeled by `f`, sharing no point with any training set of at most
/// `max_train_rows` rows. Random designs share none by construction; a
/// Halton test set starts past every stretch of the sequence a training
/// design can use (fun::kHaltonLeapEnd + max_train_rows).
Dataset MakeTestSet(const fun::TestFunction& f, int n, fun::DesignKind design,
                    int max_train_rows, uint64_t seed);

/// Relative change in percent, the paper's figure axis: 100 * (v - base) / base.
double RelativeChangePercent(double value, double baseline);

}  // namespace reds::exp

#endif  // REDS_EXP_EXPERIMENT_H_
