// The streamed REDS contract at the method layer: for REDS + PRIM the
// relabeled points flow RedsRelabelStreamed -> BuildStreamed ->
// RunPrimStreamed and never materialize, yet in the exact-pack regime
// (every sampled column <= 256 distinct values) the discovered boxes are
// bit-identical to relabeling into a dense matrix (RedsRelabel) and
// peeling it (RunPrim) -- across metamodel kinds, probability labels, and
// seeds -- and both ingestion paths hash to identical fingerprints, so
// they share every engine cache tier.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/binned_index.h"
#include "core/dataset_source.h"
#include "core/method.h"
#include "core/reds.h"
#include "engine/fingerprint.h"
#include "functions/datagen.h"
#include "functions/registry.h"
#include "reference_method.h"

namespace reds {
namespace {

// Points on a fixed grid: every column has exactly `distinct` values, so
// streamed quantization packs exactly (BuildKind::kExactPack) and the
// streamed boxes must reproduce the materialized ones bit for bit.
sampling::PointSampler MakeGridSampler(int distinct) {
  return [distinct](Rng* rng, int dim, double* out) {
    for (int j = 0; j < dim; ++j) {
      out[j] = static_cast<double>(
                   rng->UniformInt(static_cast<uint64_t>(distinct))) /
               distinct;
    }
  };
}

Dataset MakeTrainData(uint64_t seed) {
  auto f = fun::MakeFunction("ellipse");
  return fun::MakeScenarioDataset(**f, 200, fun::DesignKind::kLatinHypercube,
                                  seed);
}

RunOptions GridOptions(uint64_t seed) {
  RunOptions o;
  o.l_prim = 2000;
  o.tune_metamodel = false;
  o.sampler = MakeGridSampler(64);
  o.seed = seed;
  return o;
}

void ExpectSameOutput(const MethodOutput& a, const MethodOutput& b,
                      const std::string& context) {
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size()) << context;
  for (size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_TRUE(a.trajectory[i] == b.trajectory[i])
        << context << " box " << i;
  }
  EXPECT_TRUE(a.last_box == b.last_box) << context;
  EXPECT_EQ(a.chosen_alpha, b.chosen_alpha) << context;
}

// The equivalence sweep the data plane promises: REDS + PRIM methods x
// seeds, streamed vs the materialized oracle (tests/reference_method.h),
// identical boxes in the exact-pack regime.
TEST(MethodStreamedTest, StreamedMatchesMaterializedInExactPackRegime) {
  for (const char* method : {"RPf", "RPx", "RPxp"}) {
    for (uint64_t seed : {11ULL, 29ULL}) {
      const Dataset train = MakeTrainData(seed);
      const auto spec = MethodSpec::Parse(method);
      ASSERT_TRUE(spec.ok());
      const RunOptions options = GridOptions(seed);
      const MethodOutput streamed = RunMethod(*spec, train, options);
      const MethodOutput materialized =
          reference::RunRedsPrimMaterialized(*spec, train, options);
      ExpectSameOutput(streamed, materialized,
                       std::string(method) + " seed " + std::to_string(seed));
    }
  }
}

// PlanMethod resolves the streamed plan exactly for REDS + plain PRIM;
// BI, bumping and every non-REDS method materialize.
TEST(MethodStreamedTest, PlanResolvesStreamedOnlyForRedsPrim) {
  const Dataset train = MakeTrainData(3);
  const RunOptions options = GridOptions(3);
  for (const char* method : {"RPx", "RPf", "RPxp"}) {
    EXPECT_TRUE(PlanMethod(*MethodSpec::Parse(method), train, options)
                    .streamed_relabel)
        << method;
  }
  for (const char* method : {"P", "Pc", "PB", "BI", "RBIcxp", "RPBx"}) {
    EXPECT_FALSE(PlanMethod(*MethodSpec::Parse(method), train, options)
                     .streamed_relabel)
        << method;
  }
}

// Both ingestion paths of the relabeled stream hash identically: the
// streamed source, drained, is bitwise the materialized new_data, and the
// incremental fingerprints BuildStreamed computes equal the in-memory
// hashes -- the keys under which the engine's caches file either path.
TEST(MethodStreamedTest, FingerprintsAgreeAcrossIngestionPaths) {
  const Dataset train = MakeTrainData(7);
  RedsConfig config;
  config.tune_metamodel = false;
  config.num_new_points = 1500;
  config.sampler = MakeGridSampler(32);

  const RedsRelabeling materialized = RedsRelabel(train, config, 19);
  RedsStreamedRelabeling streamed = RedsRelabelStreamed(train, config, 19);

  // Drained stream == materialized relabeled dataset, bit for bit.
  Result<Dataset> drained = ReadAll(streamed.new_data.get(), /*block_rows=*/257);
  ASSERT_TRUE(drained.ok());
  ASSERT_EQ(drained->num_rows(), materialized.new_data.num_rows());
  for (int r = 0; r < drained->num_rows(); ++r) {
    for (int c = 0; c < drained->num_cols(); ++c) {
      ASSERT_EQ(drained->x(r, c), materialized.new_data.x(r, c));
    }
    ASSERT_EQ(drained->y(r), materialized.new_data.y(r));
  }

  // Incremental fingerprints == in-memory fingerprints.
  ASSERT_TRUE(streamed.new_data->Reset().ok());
  auto built = BinnedIndex::BuildStreamed(streamed.new_data.get());
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->fingerprint,
            engine::FingerprintDataset(materialized.new_data));
  EXPECT_EQ(built->input_fingerprint,
            engine::FingerprintInputs(materialized.new_data));
  EXPECT_EQ(built->index->kind(), BinnedIndex::BuildKind::kExactPack);
}

// The streamed plan is block-size invariant: the relabeling source
// replays one sequential sampler stream, so any stream_block_rows yields
// the same boxes.
TEST(MethodStreamedTest, StreamedPlanIndependentOfBlockSize) {
  const Dataset train = MakeTrainData(5);
  const auto spec = MethodSpec::Parse("RPx");
  ASSERT_TRUE(spec.ok());
  RunOptions base = GridOptions(5);
  const MethodOutput reference = RunMethod(*spec, train, base);
  for (int block : {128, 1024}) {
    RunOptions options = base;
    options.stream_block_rows = block;
    const MethodOutput out = RunMethod(*spec, train, options);
    ExpectSameOutput(reference, out, "block " + std::to_string(block));
  }
}

// With a continuous sampler the stream exceeds the bin budget (sketch
// regime): boxes may deviate within the quantization's rank error, but the
// run must stay deterministic and structurally valid.
TEST(MethodStreamedTest, ContinuousSamplerIsDeterministic) {
  const Dataset train = MakeTrainData(13);
  RunOptions options = GridOptions(13);
  options.sampler = {};  // default uniform: continuous
  const auto spec = MethodSpec::Parse("RPx");
  ASSERT_TRUE(spec.ok());
  const MethodOutput a = RunMethod(*spec, train, options);
  const MethodOutput b = RunMethod(*spec, train, options);
  ExpectSameOutput(a, b, "continuous determinism");
  ASSERT_FALSE(a.trajectory.empty());
  EXPECT_EQ(a.last_box.dim(), train.num_cols());
}

}  // namespace
}  // namespace reds
