// BinnedIndex invariants: bin boundaries are quantiles (balanced in-bin
// counts), codes round-trip through BinOf and the bin value ranges, tied
// values share a bin, distinct values get their own bin when they fit, and
// degenerate/constant columns collapse to a single bin.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/binned_index.h"
#include "hold_slots.h"
#include "reference_sketch.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace reds {
namespace {

Dataset MakeData(int n, int dim, uint64_t seed, int distinct_values = 0) {
  Rng rng(seed);
  Dataset d(dim);
  std::vector<double> x(static_cast<size_t>(dim));
  for (int i = 0; i < n; ++i) {
    for (auto& v : x) {
      v = distinct_values > 0
              ? static_cast<double>(rng.UniformInt(
                    static_cast<uint64_t>(distinct_values))) /
                    distinct_values
              : rng.Uniform();
    }
    d.AddRow(x, rng.Bernoulli(0.4) ? 1.0 : 0.0);
  }
  return d;
}

TEST(BinnedIndexTest, CodesRoundTripThroughBinRanges) {
  const Dataset d = MakeData(2000, 4, 1);
  const auto index = ColumnIndex::Build(d);
  const auto binned = BinnedIndex::Build(*index);
  ASSERT_EQ(binned->num_rows(), 2000);
  ASSERT_EQ(binned->num_cols(), 4);
  for (int j = 0; j < 4; ++j) {
    ASSERT_LE(binned->num_bins(j), BinnedIndex::kMaxBins);
    for (int r = 0; r < 2000; ++r) {
      const int b = binned->code(j, r);
      ASSERT_GE(b, 0);
      ASSERT_LT(b, binned->num_bins(j));
      // The row's value lies inside its bin's [first, last] range ...
      EXPECT_GE(d.x(r, j), binned->bin_first(j, b));
      EXPECT_LE(d.x(r, j), binned->bin_last(j, b));
      // ... and BinOf inverts the code.
      EXPECT_EQ(binned->BinOf(j, d.x(r, j)), b);
    }
    // Bin value ranges are disjoint and increasing.
    for (int b = 1; b < binned->num_bins(j); ++b) {
      EXPECT_LT(binned->bin_last(j, b - 1), binned->bin_first(j, b));
      EXPECT_LE(binned->bin_first(j, b), binned->bin_last(j, b));
    }
  }
}

TEST(BinnedIndexTest, BinBoundariesAreQuantiles) {
  // Continuous column, all values distinct: greedy quantile packing must
  // keep every bin within a factor of ~2 of the equal share N / bins.
  const int n = 25600;
  const Dataset d = MakeData(n, 2, 2);
  const auto binned = BinnedIndex::Build(*ColumnIndex::Build(d));
  for (int j = 0; j < 2; ++j) {
    ASSERT_EQ(binned->num_bins(j), BinnedIndex::kMaxBins);
    const double share = static_cast<double>(n) / BinnedIndex::kMaxBins;
    for (int b = 0; b < binned->num_bins(j); ++b) {
      const int count =
          binned->bin_begin_rank(j, b + 1) - binned->bin_begin_rank(j, b);
      EXPECT_GE(count, 1);
      EXPECT_LE(count, static_cast<int>(2.0 * share) + 1)
          << "bin " << b << " holds " << count << " rows";
    }
  }
}

TEST(BinnedIndexTest, RanksTileTheSortedPermutation) {
  const Dataset d = MakeData(500, 3, 3, 37);
  const auto index = ColumnIndex::Build(d);
  const auto binned = BinnedIndex::Build(*index);
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(binned->bin_begin_rank(j, 0), 0);
    EXPECT_EQ(binned->bin_begin_rank(j, binned->num_bins(j)), 500);
    for (int b = 0; b < binned->num_bins(j); ++b) {
      const int begin = binned->bin_begin_rank(j, b);
      const int end = binned->bin_begin_rank(j, b + 1);
      ASSERT_LT(begin, end);
      for (int rank = begin; rank < end; ++rank) {
        const int r = index->sorted_rows(j)[static_cast<size_t>(rank)];
        EXPECT_EQ(binned->code(j, r), b) << "rank " << rank;
      }
    }
  }
}

TEST(BinnedIndexTest, FewDistinctValuesGetOneBinEach) {
  for (int distinct : {2, 7, 64}) {
    const Dataset d = MakeData(800, 2, 4 + distinct, distinct);
    const auto binned = BinnedIndex::Build(*ColumnIndex::Build(d));
    for (int j = 0; j < 2; ++j) {
      // Every realized distinct value gets a bin of its own, and the bin is
      // a single point: first == last.
      std::vector<double> values;
      for (int r = 0; r < 800; ++r) values.push_back(d.x(r, j));
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
      ASSERT_EQ(binned->num_bins(j), static_cast<int>(values.size()));
      for (int b = 0; b < binned->num_bins(j); ++b) {
        EXPECT_EQ(binned->bin_first(j, b), binned->bin_last(j, b));
        EXPECT_EQ(binned->bin_first(j, b), values[static_cast<size_t>(b)]);
      }
    }
  }
}

TEST(BinnedIndexTest, TiedValuesNeverStraddleBins) {
  // 300 distinct values over 3000 rows: more distinct values than rows per
  // bin share, so bins must merge runs -- but never split one.
  const Dataset d = MakeData(3000, 2, 5, 300);
  const auto binned = BinnedIndex::Build(*ColumnIndex::Build(d), 16);
  for (int j = 0; j < 2; ++j) {
    ASSERT_LE(binned->num_bins(j), 16);
    for (int a = 0; a < 3000; ++a) {
      for (int b = a + 1; b < std::min(3000, a + 50); ++b) {
        if (d.x(a, j) == d.x(b, j)) {
          EXPECT_EQ(binned->code(j, a), binned->code(j, b));
        }
      }
    }
  }
}

TEST(BinnedIndexTest, ConstantColumnCollapsesToOneBin) {
  Dataset d(2);
  for (int i = 0; i < 50; ++i) {
    const double x[2] = {0.5, static_cast<double>(i)};
    d.AddRow(x, i % 2 == 0 ? 1.0 : 0.0);
  }
  const auto binned = BinnedIndex::Build(*ColumnIndex::Build(d));
  EXPECT_EQ(binned->num_bins(0), 1);
  EXPECT_EQ(binned->bin_first(0, 0), 0.5);
  EXPECT_EQ(binned->bin_last(0, 0), 0.5);
  for (int r = 0; r < 50; ++r) EXPECT_EQ(binned->code(0, r), 0);
  EXPECT_EQ(binned->num_bins(1), 50);  // all distinct
}

TEST(BinnedIndexTest, BinOfClampsBeyondTheDataRange) {
  const Dataset d = MakeData(100, 1, 6);
  const auto binned = BinnedIndex::Build(*ColumnIndex::Build(d));
  EXPECT_EQ(binned->BinOf(0, -10.0), 0);
  EXPECT_EQ(binned->BinOf(0, 10.0), binned->num_bins(0) - 1);
}

// ---------------------------------------------------------------------------
// Streamed build byte identity: the library's sketch pass (radix-sorted
// flushes, one-run spills) and bucketed coder against the plain per-value
// feed and whole-array lower_bound coder of tests/reference_sketch.h.
// ---------------------------------------------------------------------------

// Columns covering both regimes: uniform and heavily skewed continuous
// values (sketch), >cap distinct values with heavy duplicates (sketch with
// weighted spills), few distinct values (exact pack), signed zeros mixed
// into continuous data, and values spanning many binades.
Dataset MixedRegimeData(int n, uint64_t seed) {
  Rng rng(seed);
  Dataset d(6);
  for (int i = 0; i < n; ++i) {
    const double x[6] = {
        rng.Uniform(),
        std::pow(rng.Uniform(), 8.0) * 1e6,
        static_cast<double>(rng.UniformInt(400)) / 7.0,
        static_cast<double>(rng.UniformInt(9)) / 8.0,
        i % 5 == 0 ? (i % 10 == 0 ? -0.0 : 0.0) : rng.Uniform() - 0.5,
        (rng.Uniform() - 0.5) *
            std::pow(10.0, static_cast<double>(i % 30) - 15.0)};
    d.AddRow(x, rng.Bernoulli(0.3) ? 1.0 : 0.0);
  }
  return d;
}

// The whole streamed build, re-derived with the reference pieces and
// serialized in BinnedIndex's layout: per-block per-value summaries folded
// in block order, reference bounds, lower_bound codes, then the library's
// (shared, additive) coding stats and bin assembly.
std::string ReferenceStreamedBytes(const Dataset& d, int block_rows, int cap,
                                   double eps) {
  const int n = d.num_rows();
  const int m = d.num_cols();
  std::vector<reference::ColumnSummary> acc(static_cast<size_t>(m),
                                            reference::ColumnSummary(eps));
  for (int r0 = 0; r0 < n; r0 += block_rows) {
    const int rows = std::min(block_rows, n - r0);
    for (int j = 0; j < m; ++j) {
      reference::ColumnSummary local(eps);
      for (int r = 0; r < rows; ++r) local.AddValue(d.x(r0 + r, j), cap);
      acc[static_cast<size_t>(j)].MergeFrom(local, cap);
    }
  }
  bool any_sketch = false;
  util::ByteWriter columns;
  for (int j = 0; j < m; ++j) {
    reference::ColumnSummary& summary = acc[static_cast<size_t>(j)];
    any_sketch = any_sketch || summary.overflow;
    const std::vector<double> upper = summary.UpperBounds(n, cap);
    BinCodingStats stats;
    stats.Reset(upper.size());
    std::vector<uint8_t> codes;
    for (int r = 0; r < n; ++r) {
      const uint8_t b = reference::ReferenceCode(upper, d.x(r, j));
      codes.push_back(b);
      stats.Observe(b, d.x(r, j));
    }
    const ColumnBinLayout layout = AssembleColumnBins(stats, n);
    columns.U64(codes.size());
    for (const uint8_t c : codes) columns.U8(layout.remap[c]);
    columns.VecF64(layout.first);
    columns.VecF64(layout.last);
    columns.VecI32(layout.begins);
  }
  util::ByteWriter out;
  out.U32(1);  // layout version
  out.U8(static_cast<uint8_t>(any_sketch ? BinnedIndex::BuildKind::kSketch
                                         : BinnedIndex::BuildKind::kExactPack));
  out.U8(1);  // carries its own permutation
  out.I32(n);
  out.I32(m);
  out.I32(cap);
  return out.data() + columns.data();
}

// Built on an idle process (columns fan out onto idle cores) and with every
// fork-join slot held (all inline), the index bytes equal the reference.
TEST(BinnedIndexTest, StreamedBuildIsByteIdenticalToPerValueReference) {
  const auto data = std::make_shared<const Dataset>(MixedRegimeData(30000, 11));
  for (const int block_rows : {4096, 8192}) {
    for (const bool busy : {false, true}) {
      std::unique_ptr<HoldAllSlots> hold;
      if (busy) hold = std::make_unique<HoldAllSlots>();
      MatrixSource source(data);
      StreamedBuildOptions options;
      options.block_rows = block_rows;
      Result<StreamedDataset> built =
          BinnedIndex::BuildStreamed(&source, options);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      util::ByteWriter bytes;
      built->index->Serialize(&bytes);
      EXPECT_EQ(bytes.data(),
                ReferenceStreamedBytes(*data, block_rows, options.max_bins,
                                       options.sketch_eps))
          << "block_rows " << block_rows << (busy ? " busy" : " idle");
      EXPECT_EQ(built->index->kind(), BinnedIndex::BuildKind::kSketch);
    }
  }
}

// The sketch pass folds each column's block summaries on whichever thread
// runs the column's fold (FoldBlock). On an overflowing 100k x 20 stream (every column in
// the sketch regime, 25 blocks), the index bytes and both fingerprints are
// the same with idle cores as with every fork-join slot held.
TEST(BinnedIndexTest, SketchFoldIsIndependentOfIdleCores) {
  const auto data = std::make_shared<const Dataset>(MakeData(100000, 20, 14));
  std::vector<std::string> bytes;
  std::vector<uint64_t> fingerprints;
  for (const bool busy : {false, true}) {
    std::unique_ptr<HoldAllSlots> hold;
    if (busy) hold = std::make_unique<HoldAllSlots>();
    MatrixSource source(data);
    Result<StreamedDataset> built = BinnedIndex::BuildStreamed(&source);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_EQ(built->index->kind(), BinnedIndex::BuildKind::kSketch);
    util::ByteWriter out;
    built->index->Serialize(&out);
    bytes.push_back(out.data());
    fingerprints.push_back(built->input_fingerprint);
    fingerprints.push_back(built->fingerprint);
  }
  EXPECT_EQ(bytes[0], bytes[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[2]);
  EXPECT_EQ(fingerprints[1], fingerprints[3]);
}

TEST(BinnedIndexTest, ColumnSummariesAreByteIdenticalToPerValueReference) {
  const Dataset d = MixedRegimeData(20000, 12);
  const int cap = 256;
  const double eps = 1.0 / 2048.0;
  const int block_rows = 5000;
  std::vector<ColumnSketch> acc(static_cast<size_t>(d.num_cols()),
                                ColumnSketch(eps));
  std::vector<reference::ColumnSummary> ref(
      static_cast<size_t>(d.num_cols()), reference::ColumnSummary(eps));
  for (int r0 = 0; r0 < d.num_rows(); r0 += block_rows) {
    SketchBlock(d.row(r0), block_rows, d.num_cols(), cap, &acc);
    for (int j = 0; j < d.num_cols(); ++j) {
      reference::ColumnSummary ref_local(eps);
      for (int r = 0; r < block_rows; ++r) {
        ref_local.AddValue(d.x(r0 + r, j), cap);
      }
      ref[static_cast<size_t>(j)].MergeFrom(ref_local, cap);
    }
  }
  for (int j = 0; j < d.num_cols(); ++j) {
    util::ByteWriter lib, oracle;
    acc[static_cast<size_t>(j)].SerializeTo(&lib);
    ref[static_cast<size_t>(j)].SerializeTo(&oracle);
    EXPECT_EQ(lib.data(), oracle.data()) << "column " << j;
  }
}

TEST(BinnedIndexTest, BinCoderMatchesWholeArrayLowerBound) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(13);
  std::vector<std::vector<double>> bound_sets = {
      {0.5},
      {-0.0, 1.0},
      {0.0, 0.0, inf},                        // duplicate bounds
      {-inf, -1.0, 2.0},                      // infinite first bound
      {1.0, nan, 3.0},                        // unordered bound
      {-1e308, 1e308, inf},                   // span overflows
      {1e-320, 2e-320, 4e-320, 1e-300},       // subnormal bounds
  };
  std::vector<double> quantiles;
  for (int b = 0; b < 255; ++b) {
    quantiles.push_back(std::pow(rng.Uniform(), 4.0) * 100.0);
  }
  std::sort(quantiles.begin(), quantiles.end());
  quantiles.erase(std::unique(quantiles.begin(), quantiles.end()),
                  quantiles.end());
  quantiles.push_back(inf);
  bound_sets.push_back(quantiles);
  for (const std::vector<double>& upper : bound_sets) {
    const BinCoder coder(upper);
    std::vector<double> probes = {-inf, inf, nan, 0.0, -0.0, -1e308, 1e308,
                                  std::numeric_limits<double>::denorm_min()};
    for (const double u : upper) {
      probes.push_back(u);
      probes.push_back(std::nextafter(u, -inf));
      probes.push_back(std::nextafter(u, inf));
    }
    for (int i = 0; i < 2000; ++i) {
      probes.push_back((rng.Uniform() - 0.1) * 120.0);
    }
    for (const double v : probes) {
      ASSERT_EQ(coder.Code(v), reference::ReferenceCode(upper, v))
          << "value " << v << " over " << upper.size() << " bounds";
    }
  }
}

}  // namespace
}  // namespace reds
