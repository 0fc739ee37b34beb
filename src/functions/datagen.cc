#include "functions/datagen.h"

#include <algorithm>
#include <cassert>

namespace reds::fun {

DesignKind DefaultDesignFor(const TestFunction& f) {
  return f.name() == "dsgc" ? DesignKind::kHalton : DesignKind::kLatinHypercube;
}

std::vector<double> MakeDesign(DesignKind kind, int n, int dim, uint64_t seed) {
  Rng rng(seed);
  switch (kind) {
    case DesignKind::kLatinHypercube:
      return sampling::LatinHypercube(n, dim, &rng);
    case DesignKind::kHalton: {
      // Random leap start so repetitions see different stretches of the
      // sequence.
      const int skip =
          20 + static_cast<int>(rng.UniformInt(kHaltonLeapEnd - 20));
      return sampling::HaltonDesign(n, dim, skip);
    }
    case DesignKind::kUniform:
      return sampling::UniformDesign(n, dim, &rng);
    case DesignKind::kLogitNormal:
      return sampling::LogitNormalDesign(n, dim, 0.0, 1.0, &rng);
    case DesignKind::kMixedDiscrete: {
      std::vector<double> design = sampling::LatinHypercube(n, dim, &rng);
      sampling::DiscretizeEvenColumns(&design, dim, &rng);
      return design;
    }
  }
  return {};
}

Dataset LabelDesign(const TestFunction& f, const std::vector<double>& design,
                    uint64_t seed) {
  const int dim = f.dim();
  assert(design.size() % static_cast<size_t>(dim) == 0);
  const int n = static_cast<int>(design.size()) / dim;
  Rng rng(DeriveSeed(seed, 0x1abe1ULL));
  Dataset d(dim);
  d.Reserve(n);
  for (int i = 0; i < n; ++i) {
    const double* x = design.data() + static_cast<size_t>(i) * dim;
    d.AddRow(x, f.Label(x, &rng));
  }
  return d;
}

Dataset MakeScenarioDataset(const TestFunction& f, int n, DesignKind kind,
                            uint64_t seed) {
  return LabelDesign(f, MakeDesign(kind, n, f.dim(), seed), seed);
}

FunctionSource::FunctionSource(const TestFunction& f, int64_t n,
                               uint64_t seed, sampling::PointSampler sampler)
    : f_(f), n_(n), seed_(seed), sampler_(std::move(sampler)) {
  assert(n >= 0);
  if (!sampler_) sampler_ = sampling::MakeUniformSampler();
}

int FunctionSource::num_cols() const { return f_.dim(); }

Status FunctionSource::Reset() {
  cursor_ = 0;
  return Status::OK();
}

Result<RowBlock> FunctionSource::NextBlock(int max_rows) {
  if (max_rows <= 0) {
    return Status::InvalidArgument("NextBlock needs max_rows >= 1");
  }
  RowBlock block;
  const int dim = f_.dim();
  const int take = static_cast<int>(
      std::min<int64_t>(max_rows, n_ - cursor_));
  if (take <= 0) return block;
  x_buf_.resize(static_cast<size_t>(take) * dim);
  y_buf_.resize(static_cast<size_t>(take));
  for (int r = 0; r < take; ++r) {
    // One derived stream per row: the sequence is independent of block
    // boundaries, so both build passes (and any chunk size) see identical
    // rows.
    Rng rng(DeriveSeed(seed_, static_cast<uint64_t>(cursor_ + r)));
    double* x = x_buf_.data() + static_cast<size_t>(r) * dim;
    sampler_(&rng, dim, x);
    y_buf_[static_cast<size_t>(r)] = f_.Label(x, &rng);
  }
  cursor_ += take;
  block.x = la::ConstMatrixView(x_buf_.data(), take, dim);
  block.y = y_buf_.data();
  return block;
}

sampling::PointSampler SamplerFor(DesignKind kind) {
  switch (kind) {
    case DesignKind::kLogitNormal:
      return sampling::MakeLogitNormalSampler(0.0, 1.0);
    case DesignKind::kMixedDiscrete:
      return sampling::MakeMixedSampler();
    case DesignKind::kLatinHypercube:
    case DesignKind::kHalton:
    case DesignKind::kUniform:
      return sampling::MakeUniformSampler();
  }
  return sampling::MakeUniformSampler();
}

}  // namespace reds::fun
