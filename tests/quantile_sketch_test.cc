// Greenwald-Khanna sketch guarantees: rank error stays within eps * n on
// adversarial input orders and distributions, merging per-chunk sketches
// preserves the bound, the summary stays sub-linear, extremes are exact,
// and everything is deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/quantile_sketch.h"
#include "reference_sketch.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace reds {
namespace {

// Rank error of a sketch answer: distance from the query rank to the true
// rank interval [#less, #lessEq] of the returned value.
int64_t RankError(const std::vector<double>& sorted_data, double answer,
                  int64_t rank) {
  const int64_t lo = std::lower_bound(sorted_data.begin(), sorted_data.end(),
                                      answer) -
                     sorted_data.begin();
  const int64_t hi = std::upper_bound(sorted_data.begin(), sorted_data.end(),
                                      answer) -
                     sorted_data.begin() - 1;
  if (rank < lo) return lo - rank;
  if (rank > hi) return rank - hi;
  return 0;
}

void ExpectWithinBound(const QuantileSketch& sketch, std::vector<double> data,
                       const char* label) {
  std::sort(data.begin(), data.end());
  const int64_t n = static_cast<int64_t>(data.size());
  ASSERT_EQ(sketch.count(), n) << label;
  const double allowed = sketch.eps() * static_cast<double>(n) + 1.0;
  for (int64_t step = 0; step <= 64; ++step) {
    const int64_t rank = step * (n - 1) / 64;
    const double answer = sketch.QueryRank(rank);
    EXPECT_LE(static_cast<double>(RankError(data, answer, rank)), allowed)
        << label << " rank " << rank;
  }
  // Extremes are exact.
  EXPECT_EQ(sketch.QueryRank(0), data.front()) << label;
  EXPECT_EQ(sketch.QueryRank(n - 1), data.back()) << label;
}

std::vector<double> AdversarialStream(int kind, int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> data(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    double v = 0.0;
    switch (kind) {
      case 0:  // sorted ascending
        v = static_cast<double>(i);
        break;
      case 1:  // sorted descending
        v = static_cast<double>(n - i);
        break;
      case 2:  // heavy duplicates (17 distinct values)
        v = static_cast<double>(rng.UniformInt(17));
        break;
      case 3:  // zipf-ish clusters: most mass near 0, long tail
        v = std::pow(rng.Uniform(), 8.0) * 1e6;
        break;
      case 4:  // alternating extremes
        v = (i % 2 == 0) ? static_cast<double>(i) : -static_cast<double>(i);
        break;
      default:  // uniform
        v = rng.Uniform();
        break;
    }
    data[static_cast<size_t>(i)] = v;
  }
  return data;
}

TEST(QuantileSketchTest, ExactOnSmallStreams) {
  QuantileSketch sketch(1.0 / 256.0);
  std::vector<double> data = {5.0, 1.0, 3.0, 2.0, 4.0};
  for (double v : data) sketch.Add(v);
  std::sort(data.begin(), data.end());
  for (int64_t r = 0; r < 5; ++r) {
    EXPECT_EQ(sketch.QueryRank(r), data[static_cast<size_t>(r)]);
  }
}

TEST(QuantileSketchTest, RankErrorBoundOnAdversarialStreams) {
  const char* labels[] = {"ascending", "descending", "duplicates",
                          "zipf",      "alternating", "uniform"};
  for (int kind = 0; kind < 6; ++kind) {
    const std::vector<double> data = AdversarialStream(kind, 30000, 7);
    QuantileSketch sketch(1.0 / 512.0);
    for (double v : data) sketch.Add(v);
    ExpectWithinBound(sketch, data, labels[kind]);
  }
}

TEST(QuantileSketchTest, SummaryStaysSubLinear) {
  const std::vector<double> data = AdversarialStream(5, 60000, 11);
  QuantileSketch sketch(1.0 / 512.0);
  for (double v : data) sketch.Add(v);
  // O((1/eps) log(eps n)) with small constants; a linear summary would be
  // 60000 tuples.
  EXPECT_LT(sketch.SummarySize(), 60000u / 8);
}

TEST(QuantileSketchTest, MergePreservesTheBound) {
  for (int kind = 0; kind < 6; ++kind) {
    const std::vector<double> data = AdversarialStream(kind, 30000, 13);
    // 7 unequal chunks, sketched independently and folded in order --
    // exactly what the parallel streaming build does.
    QuantileSketch merged(1.0 / 512.0);
    size_t begin = 0;
    int chunk = 1;
    while (begin < data.size()) {
      const size_t end = std::min(data.size(), begin + 1000 * chunk);
      QuantileSketch part(1.0 / 512.0);
      for (size_t i = begin; i < end; ++i) part.Add(data[i]);
      merged.Merge(part);
      begin = end;
      ++chunk;
    }
    ExpectWithinBound(merged, data, "merged");
  }
}

TEST(QuantileSketchTest, DeterministicAcrossRuns) {
  const std::vector<double> data = AdversarialStream(3, 20000, 17);
  QuantileSketch a(1.0 / 256.0), b(1.0 / 256.0);
  for (double v : data) a.Add(v);
  for (double v : data) b.Add(v);
  for (int64_t step = 0; step <= 32; ++step) {
    const int64_t rank = step * 19999 / 32;
    EXPECT_EQ(a.QueryRank(rank), b.QueryRank(rank));
  }
}

TEST(QuantileSketchTest, AddWeightedMatchesRepeatedAdds) {
  // Spilling exact (value, count) pairs through AddWeighted must satisfy
  // the same bound as inserting every copy -- including heavy values whose
  // weight dwarfs the gap budget, where ranks inside the mass are exact.
  Rng rng(23);
  std::vector<std::pair<double, int64_t>> pairs;
  std::vector<double> data;
  for (int i = 0; i < 40; ++i) {
    const double v = rng.Uniform() * 100.0;
    const int64_t w = (i % 7 == 0) ? 4000 : 1 + rng.UniformInt(20);
    pairs.emplace_back(v, w);
    for (int64_t k = 0; k < w; ++k) data.push_back(v);
  }
  std::sort(pairs.begin(), pairs.end());
  QuantileSketch sketch(1.0 / 512.0);
  for (const auto& [v, w] : pairs) sketch.AddWeighted(v, w);
  ExpectWithinBound(sketch, data, "weighted");

  // Per-value sketch work afterward (the post-spill regime) keeps the
  // bound too.
  std::vector<double> tail = AdversarialStream(5, 5000, 29);
  for (double v : tail) {
    sketch.Add(v * 100.0);
    data.push_back(v * 100.0);
  }
  ExpectWithinBound(sketch, data, "weighted+stream");
}

// ---------------------------------------------------------------------------
// Byte identity with the plain per-value formulation
// (tests/reference_sketch.h).
// ---------------------------------------------------------------------------

std::string Bytes(const QuantileSketch& s) {
  util::ByteWriter out;
  s.SerializeTo(&out);
  return out.data();
}

std::string Bytes(reference::Sketch* s) {
  util::ByteWriter out;
  s->SerializeTo(&out);
  return out.data();
}

// Streams the radix-sorted flush must order exactly like std::sort: every
// adversarial shape, plus signed zeros (equal but distinct bits, which keep
// std::sort) and subnormals.
std::vector<std::vector<double>> IdentityStreams() {
  std::vector<std::vector<double>> streams;
  for (int kind = 0; kind <= 5; ++kind) {
    streams.push_back(AdversarialStream(kind, 9000, 40 + kind));
  }
  Rng rng(47);
  std::vector<double> zeros, tiny, mixed_sign;
  for (int i = 0; i < 6000; ++i) {
    zeros.push_back(i % 3 == 0 ? -0.0 : (i % 3 == 1 ? 0.0 : rng.Uniform()));
    tiny.push_back(rng.Uniform() * 1e4 *
                   std::numeric_limits<double>::denorm_min());
    mixed_sign.push_back((rng.Uniform() - 0.5) * std::pow(10.0, i % 40 - 20));
  }
  streams.push_back(zeros);
  streams.push_back(tiny);
  streams.push_back(mixed_sign);
  return streams;
}

TEST(QuantileSketchTest, PerValueFeedIsByteIdenticalToReference) {
  for (const double eps : {1.0 / 2048.0, 1.0 / 64.0}) {
    const std::vector<std::vector<double>> streams = IdentityStreams();
    for (size_t k = 0; k < streams.size(); ++k) {
      QuantileSketch sketch(eps);
      reference::Sketch ref(eps);
      for (size_t i = 0; i < streams[k].size(); ++i) {
        sketch.Add(streams[k][i]);
        ref.Add(streams[k][i]);
        // Serializing flushes mid-stream; both forms must agree there too.
        if (i % 2500 == 1234) {
          ASSERT_EQ(Bytes(sketch), Bytes(&ref)) << "stream " << k << " @" << i;
        }
      }
      EXPECT_EQ(Bytes(sketch), Bytes(&ref)) << "stream " << k << " eps " << eps;
    }
  }
}

TEST(QuantileSketchTest, SortedWeightedRunIsByteIdenticalToAddWeighted) {
  Rng rng(48);
  for (int trial = 0; trial < 6; ++trial) {
    // Ascending distinct values with small and occasionally heavy weights,
    // as a column's exact pairs look when they spill.
    std::vector<double> values;
    std::vector<int64_t> weights;
    double v = trial % 2 == 0 ? -0.0 : -50.0;
    for (int i = 0; i < 200 + 60 * trial; ++i) {
      v = std::nextafter(v, INFINITY) + rng.Uniform();
      values.push_back(v);
      weights.push_back(i % 29 == 0 ? 900 : 1 + static_cast<int64_t>(
                                                    rng.UniformInt(trial + 1)));
    }
    const double eps = trial < 3 ? 1.0 / 2048.0 : 1.0 / 100.0;
    QuantileSketch sketch(eps);
    sketch.AddSortedWeighted(values.data(), weights.data(), values.size());
    reference::Sketch ref(eps);
    for (size_t i = 0; i < values.size(); ++i) {
      ref.AddWeighted(values[i], weights[i]);
    }
    EXPECT_EQ(Bytes(sketch), Bytes(&ref)) << "trial " << trial;
    // Per-value inserts afterward land on identical state.
    for (int i = 0; i < 3000; ++i) {
      const double x = rng.Uniform() * v;
      sketch.Add(x);
      ref.Add(x);
    }
    EXPECT_EQ(Bytes(sketch), Bytes(&ref)) << "trial " << trial << " + adds";
  }
}

TEST(QuantileSketchTest, MergeIsByteIdenticalToReference) {
  const std::vector<std::vector<double>> streams = IdentityStreams();
  QuantileSketch acc(1.0 / 2048.0);
  reference::Sketch ref_acc(1.0 / 2048.0);
  for (const std::vector<double>& stream : streams) {
    QuantileSketch part(1.0 / 2048.0);
    reference::Sketch ref_part(1.0 / 2048.0);
    for (const double v : stream) {
      part.Add(v);
      ref_part.Add(v);
    }
    acc.Merge(part);
    ref_acc.Merge(ref_part);
    ASSERT_EQ(Bytes(acc), Bytes(&ref_acc));
  }
}

TEST(QuantileSketchTest, QueryQuantileMatchesQueryRank) {
  QuantileSketch sketch(1.0 / 128.0);
  for (int i = 0; i < 1000; ++i) sketch.Add(static_cast<double>(i));
  EXPECT_EQ(sketch.QueryQuantile(0.0), sketch.QueryRank(0));
  EXPECT_EQ(sketch.QueryQuantile(1.0), sketch.QueryRank(999));
  EXPECT_EQ(sketch.QueryQuantile(0.5), sketch.QueryRank(500));
}

}  // namespace
}  // namespace reds
