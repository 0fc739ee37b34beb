// Glue between designs of experiments and labeling oracles: builds the
// datasets D / D_test the experiments consume (paper Section 8.5).
#ifndef REDS_FUNCTIONS_DATAGEN_H_
#define REDS_FUNCTIONS_DATAGEN_H_

#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "core/dataset_source.h"
#include "functions/function.h"
#include "sampling/design.h"

namespace reds::fun {

enum class DesignKind {
  kLatinHypercube,  // default for all functions (paper Section 8.5)
  kHalton,          // used for "dsgc"
  kUniform,
  kLogitNormal,     // semi-supervised experiment (Section 9.4)
  kMixedDiscrete,   // even inputs in {0.1,...,0.9} (Section 9.1.2)
};

/// The paper's design choice for a function: Halton for "dsgc", LHS
/// otherwise.
DesignKind DefaultDesignFor(const TestFunction& f);

/// Halton designs start at a seeded random leap in [20, kHaltonLeapEnd) of
/// the sequence, so repetitions see different stretches of it. A design
/// of n points therefore only ever uses sequence indices below
/// kHaltonLeapEnd + n.
inline constexpr int kHaltonLeapEnd = 100020;

/// n x dim row-major design of the requested kind.
std::vector<double> MakeDesign(DesignKind kind, int n, int dim, uint64_t seed);

/// Labels the design points with the function ("runs n simulations").
Dataset LabelDesign(const TestFunction& f, const std::vector<double>& design,
                    uint64_t seed);

/// Convenience: MakeDesign + LabelDesign.
Dataset MakeScenarioDataset(const TestFunction& f, int n, DesignKind kind,
                            uint64_t seed);

/// Point sampler matching the input distribution of a design kind; REDS must
/// draw its L fresh points from the same p(x).
sampling::PointSampler SamplerFor(DesignKind kind);

/// Generator-backed DatasetSource: streams `n` sampled points labeled by a
/// test function in blocks, so arbitrarily large labeled samples flow into
/// the streaming data plane without ever being materialized. Each row is
/// generated from a seed derived from (seed, row index), making the stream
/// deterministic across Reset() passes and independent of the block sizes
/// callers request. Points are drawn from `sampler` (the same p(x) REDS
/// uses for its L fresh points; default uniform), so stratified designs
/// (LHS/Halton), which need the full sample upfront, stay on the
/// materialized MakeDesign path.
class FunctionSource : public DatasetSource {
 public:
  FunctionSource(const TestFunction& f, int64_t n, uint64_t seed,
                 sampling::PointSampler sampler = {});

  int num_cols() const override;
  int64_t num_rows_hint() const override { return n_; }
  Status Reset() override;
  Result<RowBlock> NextBlock(int max_rows) override;

 private:
  const TestFunction& f_;
  int64_t n_;
  uint64_t seed_;
  sampling::PointSampler sampler_;
  int64_t cursor_ = 0;
  std::vector<double> x_buf_;
  std::vector<double> y_buf_;
};

}  // namespace reds::fun

#endif  // REDS_FUNCTIONS_DATAGEN_H_
