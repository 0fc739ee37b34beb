// AVX2-vs-scalar equivalence for the dispatched hot kernels. Every
// dispatched kernel is required to be bit-identical to its plain scalar
// reference on every input, so each test runs the same kernel pinned to
// kScalar and (when the build and CPU support it) kAvx2 via ForceSimdLevel
// and compares against the reference bit for bit. Lengths deliberately
// straddle the vector width: 1-row nodes, n = width +/- 1, odd primes --
// the tail handling is where a SIMD kernel goes wrong first.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <new>
#include <vector>

#include "ml/histogram.h"
#include "util/rng.h"
#include "util/simd.h"

namespace reds {
namespace {

using ml::HistBin;
using ml::HistBinQ16;
using util::SimdLevel;

// Adversarial node sizes: single row, around the 4-row unroll, around the
// 256-bit width in doubles and int16s, odd primes, and a cache-spilling
// size.
const int kSizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 127, 4001};

// Pins the dispatch level for one scope and restores the previous level on
// exit, so a failing test cannot leak a forced level into its neighbors.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level)
      : previous_(util::ActiveSimdLevel()) {
    util::ForceSimdLevel(level);
  }
  ~ScopedSimdLevel() { util::ForceSimdLevel(previous_); }

 private:
  SimdLevel previous_;
};

struct KernelInput {
  std::vector<uint8_t> codes;
  std::vector<double> g, h;
  std::vector<int> ids;
};

// Shuffled ids over random codes/gradients: the gather pattern of a
// partitioned tree node. A few bins dominate (modulo a small bin count)
// so rows sharing a bin inside one unrolled group occur at every size.
KernelInput MakeInput(int n, uint64_t seed, int bins = 256) {
  KernelInput in;
  Rng rng(seed);
  in.codes.resize(static_cast<size_t>(n));
  in.g.resize(static_cast<size_t>(n));
  in.h.resize(static_cast<size_t>(n));
  in.ids.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    in.codes[static_cast<size_t>(i)] =
        static_cast<uint8_t>(rng.UniformInt(static_cast<uint64_t>(bins)));
    in.g[static_cast<size_t>(i)] = rng.Normal();
    in.h[static_cast<size_t>(i)] = rng.Uniform();
    in.ids[static_cast<size_t>(i)] = i;
  }
  rng.Shuffle(&in.ids);
  return in;
}

void ExpectBinsIdentical(const std::vector<HistBin>& a,
                         const std::vector<HistBin>& b, int n) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].g, b[i].g) << "bin " << i << " n=" << n;
    EXPECT_EQ(a[i].h, b[i].h) << "bin " << i << " n=" << n;
    EXPECT_EQ(a[i].count, b[i].count) << "bin " << i << " n=" << n;
  }
}

// Runs `kernel` under both pinned dispatch levels and checks each result
// against the scalar reference bins.
template <typename Fn>
void CheckBothLevels(const std::vector<HistBin>& reference, int n,
                     const Fn& kernel) {
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    ScopedSimdLevel pin(level);
    std::vector<HistBin> bins(reference.size());
    kernel(&bins);
    ExpectBinsIdentical(reference, bins, n);
  }
}

TEST(SimdKernelsTest, HistogramGMatchesReferenceAtAdversarialSizes) {
  for (int n : kSizes) {
    const KernelInput in = MakeInput(n, 1000 + static_cast<uint64_t>(n));
    std::vector<HistBin> reference(256);
    ml::AccumulateHistogramReference(in.codes.data(), in.ids.data(), n,
                                     in.g.data(), reference.data());
    CheckBothLevels(reference, n, [&](std::vector<HistBin>* bins) {
      ml::AccumulateHistogram(in.codes.data(), in.ids.data(), n, in.g.data(),
                              bins->data());
    });
  }
}

TEST(SimdKernelsTest, HistogramGHMatchesReferenceAtAdversarialSizes) {
  for (int n : kSizes) {
    const KernelInput in = MakeInput(n, 2000 + static_cast<uint64_t>(n));
    std::vector<HistBin> reference(256);
    ml::AccumulateHistogramReference(in.codes.data(), in.ids.data(), n,
                                     in.g.data(), in.h.data(),
                                     reference.data());
    CheckBothLevels(reference, n, [&](std::vector<HistBin>* bins) {
      ml::AccumulateHistogram(in.codes.data(), in.ids.data(), n, in.g.data(),
                              in.h.data(), bins->data());
    });
  }
}

TEST(SimdKernelsTest, HistogramPairsMatchesUnpackedReference) {
  for (int n : kSizes) {
    const KernelInput in = MakeInput(n, 3000 + static_cast<uint64_t>(n));
    std::vector<HistBin> reference(256);
    ml::AccumulateHistogramReference(in.codes.data(), in.ids.data(), n,
                                     in.g.data(), in.h.data(),
                                     reference.data());
    util::PackedDoubleBuffer pairs;
    ml::PackGradientPairs(in.g.data(), in.h.data(), n, &pairs);
    CheckBothLevels(reference, n, [&](std::vector<HistBin>* bins) {
      ml::AccumulateHistogramPairs(in.codes.data(), in.ids.data(), n,
                                   pairs.data(), bins->data());
    });
  }
}

TEST(SimdKernelsTest, HistogramSingleBinPileup) {
  // Every row lands in one bin: the worst case for any unrolled kernel
  // that batches its bin read-modify-writes.
  for (int n : kSizes) {
    KernelInput in = MakeInput(n, 4000 + static_cast<uint64_t>(n));
    for (auto& c : in.codes) c = 7;
    std::vector<HistBin> reference(256);
    ml::AccumulateHistogramReference(in.codes.data(), in.ids.data(), n,
                                     in.g.data(), in.h.data(),
                                     reference.data());
    EXPECT_EQ(reference[7].count, n);
    CheckBothLevels(reference, n, [&](std::vector<HistBin>* bins) {
      ml::AccumulateHistogram(in.codes.data(), in.ids.data(), n, in.g.data(),
                              in.h.data(), bins->data());
    });
  }
}

TEST(SimdKernelsTest, HistogramQ16ExactlyEqualOnEveryPath) {
  // Integer sums are associative: the Q16 kernel must be exactly equal to
  // its reference on every dispatch path, not just bit-close.
  for (int n : kSizes) {
    const KernelInput in = MakeInput(n, 5000 + static_cast<uint64_t>(n));
    std::vector<int16_t> gh16(2 * static_cast<size_t>(n));
    const double scale =
        ml::QuantizeGradientPairs(in.g.data(), in.h.data(), n, gh16.data());
    EXPECT_GT(scale, 0.0);
    std::vector<HistBinQ16> reference(256);
    ml::AccumulateHistogramQ16Reference(in.codes.data(), in.ids.data(), n,
                                        gh16.data(), reference.data());
    for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
      ScopedSimdLevel pin(level);
      std::vector<HistBinQ16> bins(256);
      ml::AccumulateHistogramQ16(in.codes.data(), in.ids.data(), n,
                                 gh16.data(), bins.data());
      for (int b = 0; b < 256; ++b) {
        EXPECT_EQ(reference[static_cast<size_t>(b)].g,
                  bins[static_cast<size_t>(b)].g)
            << "bin " << b << " n=" << n;
        EXPECT_EQ(reference[static_cast<size_t>(b)].h,
                  bins[static_cast<size_t>(b)].h);
        EXPECT_EQ(reference[static_cast<size_t>(b)].count,
                  bins[static_cast<size_t>(b)].count);
      }
    }
  }
}

TEST(SimdKernelsTest, GatherSumExactForIntegralLabels) {
  // GatherSum's AVX2 path reorders additions, which is only invoked for
  // integer-valued doubles -- where any association is exact below 2^53.
  for (int n : kSizes) {
    Rng rng(6000 + static_cast<uint64_t>(n));
    std::vector<double> v(static_cast<size_t>(n));
    std::vector<int> ids(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      v[static_cast<size_t>(i)] = rng.Bernoulli(0.3) ? 1.0 : 0.0;
      ids[static_cast<size_t>(i)] = i;
    }
    rng.Shuffle(&ids);
    const double reference = util::GatherSumReference(v.data(), ids.data(), n);
    for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
      ScopedSimdLevel pin(level);
      EXPECT_EQ(util::GatherSum(v.data(), ids.data(), n), reference)
          << "n=" << n;
    }
  }
}

// Masked-kernel fixture: a value-sorted permutation segment over a padded
// in-box bitmask, the exact shape of PRIM's binned boundary-bin scans.
struct MaskedInput {
  std::vector<double> col, y;
  std::vector<uint8_t> mask;  // 3 padding bytes past the last row
  std::vector<int> ids;       // value-sorted segment over masked rows
};

MaskedInput MakeMaskedInput(int n, uint64_t seed) {
  MaskedInput in;
  Rng rng(seed);
  in.col.resize(static_cast<size_t>(n));
  in.y.resize(static_cast<size_t>(n));
  in.mask.resize(static_cast<size_t>(n) + 3, 0xEE);  // poisoned padding
  in.ids.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Few distinct values so bound comparisons hit ties at every size.
    in.col[static_cast<size_t>(i)] = static_cast<double>(rng.UniformInt(8));
    in.y[static_cast<size_t>(i)] = rng.Bernoulli(0.4) ? 1.0 : 0.0;
    in.mask[static_cast<size_t>(i)] = rng.Bernoulli(0.7) ? 1 : 0;
    in.ids[static_cast<size_t>(i)] = i;
  }
  // ids in value order (ties by row id), as ColumnIndex delivers them.
  std::stable_sort(in.ids.begin(), in.ids.end(), [&](int a, int b) {
    return in.col[static_cast<size_t>(a)] < in.col[static_cast<size_t>(b)];
  });
  return in;
}

TEST(SimdKernelsTest, MaskedCountBelowMatchesReferenceAtAdversarialSizes) {
  for (int n : kSizes) {
    const MaskedInput in = MakeMaskedInput(n, 7000 + static_cast<uint64_t>(n));
    for (double bound : {-1.0, 0.0, 3.0, 3.5, 7.0, 100.0}) {
      for (bool strict : {true, false}) {
        const int reference = util::MaskedCountBelowReference(
            in.col.data(), in.mask.data(), in.ids.data(), n, bound, strict);
        for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
          ScopedSimdLevel pin(level);
          EXPECT_EQ(util::MaskedCountBelow(in.col.data(), in.mask.data(),
                                           in.ids.data(), n, bound, strict),
                    reference)
              << "n=" << n << " bound=" << bound << " strict=" << strict;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, MaskedPrefixSumExactForIntegralLabels) {
  for (int n : kSizes) {
    const MaskedInput in = MakeMaskedInput(n, 8000 + static_cast<uint64_t>(n));
    int masked = 0;
    for (int i = 0; i < n; ++i) {
      masked += in.mask[static_cast<size_t>(i)] != 0 ? 1 : 0;
    }
    // Every legal take count, including 0, 1, all, and just-short-of-all:
    // the vector/scalar handoff point moves across the whole segment.
    for (int count : {0, 1, masked / 2, masked - 1, masked}) {
      if (count < 0) continue;
      const double reference = util::MaskedPrefixSumReference(
          in.y.data(), in.mask.data(), in.ids.data(), n, count);
      for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
        ScopedSimdLevel pin(level);
        EXPECT_EQ(util::MaskedPrefixSum(in.y.data(), in.mask.data(),
                                        in.ids.data(), n, count),
                  reference)
            << "n=" << n << " count=" << count;
      }
    }
  }
}

TEST(SimdKernelsTest, MaskedKernelsAllRowsMaskedOrNone) {
  // Degenerate masks: all-in (the first peel) and all-out tails.
  for (int n : {1, 4, 5, 16, 17, 127}) {
    MaskedInput in = MakeMaskedInput(n, 9000 + static_cast<uint64_t>(n));
    for (uint8_t fill : {uint8_t{1}, uint8_t{0}}) {
      for (int i = 0; i < n; ++i) in.mask[static_cast<size_t>(i)] = fill;
      const int ref_count = util::MaskedCountBelowReference(
          in.col.data(), in.mask.data(), in.ids.data(), n, 3.0, true);
      const int take = fill ? n : 0;
      const double ref_sum = util::MaskedPrefixSumReference(
          in.y.data(), in.mask.data(), in.ids.data(), n, take);
      for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
        ScopedSimdLevel pin(level);
        EXPECT_EQ(util::MaskedCountBelow(in.col.data(), in.mask.data(),
                                         in.ids.data(), n, 3.0, true),
                  ref_count);
        EXPECT_EQ(util::MaskedPrefixSum(in.y.data(), in.mask.data(),
                                        in.ids.data(), n, take),
                  ref_sum);
      }
    }
  }
}

TEST(SimdKernelsTest, ForceLevelClampsToBuildAndCpu) {
  const SimdLevel previous = util::ActiveSimdLevel();
  const SimdLevel forced = util::ForceSimdLevel(SimdLevel::kAvx2);
  // Whatever the host, the forced level must be real: kAvx2 only when the
  // binary carries AVX2 bodies and the CPU runs them.
  EXPECT_EQ(forced == SimdLevel::kAvx2, util::Avx2Available());
  EXPECT_EQ(util::ForceSimdLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  util::ForceSimdLevel(previous);
}

TEST(PackedDoubleBufferTest, OutOfMemoryResizeThrowsAndLeavesItEmpty) {
  util::PackedDoubleBuffer buffer;
  buffer.Resize(16);
  ASSERT_NE(buffer.data(), nullptr);
  // 2^62 doubles: the byte count wraps size_t. Before the overflow check,
  // the wrapped count allocated a few bytes and claimed 2^62 doubles.
  EXPECT_THROW(buffer.Resize(size_t{1} << 62), std::bad_alloc);
  EXPECT_EQ(buffer.data(), nullptr);
  EXPECT_EQ(buffer.size(), 0u);
#if !defined(__SANITIZE_ADDRESS__)
  // 2^47 doubles (1 PiB) do not wrap but exceed the address space, so the
  // allocator returns null. (AddressSanitizer aborts on such requests
  // instead of returning null, so this half runs in plain builds only.)
  EXPECT_THROW(buffer.Resize(size_t{1} << 47), std::bad_alloc);
  EXPECT_EQ(buffer.size(), 0u);
#endif
  // Still usable, and destroys without a double free.
  buffer.Resize(8);
  ASSERT_NE(buffer.data(), nullptr);
  EXPECT_EQ(buffer.size(), 8u);
  buffer.data()[7] = 1.0;
}

}  // namespace
}  // namespace reds
