// Perf-regression harness for the columnar and quantized hot paths: times
// the library kernels against the test-only oracles (tests/reference_*.h)
// and the exact split search, and the approximate kernels against the
// exact ones, on the paper-scale shapes
// (PRIM peeling over L relabeled points, GBT/RF metamodel fits, BI beam
// search) and emits machine-readable JSON, extending the BENCH_*.json
// trajectory. Exact kernels must reproduce their reference bit-for-bit;
// approximate kernels (histogram trees beyond the bin budget) must stay
// within a small training-quality delta.
//
//   bench_perf_kernels            # paper scale: n=10k, L=100k, d=10
//   bench_perf_kernels --quick    # CI smoke: tiny sizes, seconds not minutes
//   bench_perf_kernels --out BENCH_pr3.json
//   bench_perf_kernels --quick --check-against bench/quick_reference.json
//                                 # fail when timings regress > 3x
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/best_interval.h"
#include "core/dataset_source.h"
#include "core/method.h"
#include "core/prim.h"
#include "engine/discovery_engine.h"
#include "hold_slots.h"
#include "ml/gbt.h"
#include "ml/histogram.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "ml/serialize.h"
#include "ml/tuning.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reference_bi.h"
#include "reference_bumping.h"
#include "reference_metamodel.h"
#include "reference_method.h"
#include "reference_prim.h"
#include "reference_tuning.h"
#include "shard/coordinator.h"
#include "shard/source_spec.h"
#include "shard/worker.h"
#include "util/rng.h"
#include "util/simd.h"

namespace reds {
namespace {

struct PerfFlags {
  bool quick = false;
  int n_train = 10000;   // metamodel training size (paper Fig. 9 scale)
  int l_points = 100000; // relabeled dataset size L
  int dims = 10;
  int reps = 3;          // timing repetitions; best (idle-core kernels:
                         // median of at least 3) is reported
  int threads = 4;       // engine / server / fleet threads (service kernels)
  uint64_t seed = 42;
  std::string out;           // JSON path; empty: stdout only
  std::string metrics_out;   // MetricsRegistry JSON path; empty: none
  std::string check_against; // reference JSON; empty: no regression gate
  double check_tolerance = 3.0;
  std::string only;          // substring filter on kernel names; empty: all
};

PerfFlags ParseFlags(int argc, char** argv) {
  PerfFlags flags;
  auto next_value = [&](int* i) -> const char* {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[*i]);
      std::exit(2);
    }
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      flags.quick = true;
    } else if (arg == "--full") {
      flags.quick = false;
    } else if (arg == "--n") {
      flags.n_train = std::atoi(next_value(&i));
    } else if (arg == "--l") {
      flags.l_points = std::atoi(next_value(&i));
    } else if (arg == "--d") {
      flags.dims = std::atoi(next_value(&i));
    } else if (arg == "--reps") {
      flags.reps = std::atoi(next_value(&i));
    } else if (arg == "--threads") {
      flags.threads = std::atoi(next_value(&i));
    } else if (arg == "--seed") {
      flags.seed = static_cast<uint64_t>(std::atoll(next_value(&i)));
    } else if (arg == "--out") {
      flags.out = next_value(&i);
    } else if (arg == "--metrics-out") {
      flags.metrics_out = next_value(&i);
    } else if (arg == "--check-against") {
      flags.check_against = next_value(&i);
    } else if (arg == "--check-tolerance") {
      flags.check_tolerance = std::atof(next_value(&i));
    } else if (arg == "--only") {
      flags.only = next_value(&i);
    } else if (arg == "--help") {
      std::printf(
          "usage: bench_perf_kernels [--quick|--full] [--n N] [--l L] "
          "[--d D] [--reps R] [--threads T] [--seed S] [--out file.json] "
          "[--metrics-out metrics.json] [--check-against ref.json] "
          "[--check-tolerance X] [--only name_substring]\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag %s (see --help)\n", arg.c_str());
      std::exit(2);
    }
  }
  if (flags.quick) {
    flags.n_train = 600;
    flags.l_points = 3000;
    flags.dims = 6;
    flags.reps = 1;
  }
  return flags;
}

Dataset RandomData(int n, int dim, uint64_t seed, int distinct_values = 0) {
  Rng rng(seed);
  Dataset d(dim);
  d.Reserve(n);
  std::vector<double> x(static_cast<size_t>(dim));
  for (int i = 0; i < n; ++i) {
    for (auto& v : x) {
      v = distinct_values > 0
              ? static_cast<double>(rng.UniformInt(
                    static_cast<uint64_t>(distinct_values))) /
                    distinct_values
              : rng.Uniform();
    }
    const double p = (x[0] < 0.45 && x[1] > 0.3) ? 0.8 : 0.15;
    d.AddRow(x, rng.Bernoulli(p) ? 1.0 : 0.0);
  }
  return d;
}

struct KernelResult {
  std::string name;
  std::string detail;
  double reference_seconds = 0.0;
  double optimized_seconds = 0.0;
  bool identical = true;      // optimized output matched the reference
  bool approximate = false;   // histogram kernels: identity not required
  double quality_delta = 0.0; // |train quality gap| for approximate kernels
  /// Per-kernel bound on quality_delta: log-loss gap for the histogram
  /// kernels, relative slowdown for metrics_overhead (the <1% budget).
  double quality_tolerance = 0.05;

  double Speedup() const {
    return optimized_seconds > 0.0 ? reference_seconds / optimized_seconds
                                   : 0.0;
  }
  bool Ok() const {
    return approximate ? quality_delta <= quality_tolerance : identical;
  }
};

// Best-of-reps wall time of fn().
double TimeBest(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    best = std::min(best, s);
  }
  return best;
}

// Median wall time of fn() over max(3, reps) runs. The idle-core kernels
// time both their sides this way: the idle side rides on host load, and
// one slowed sample should neither fail the gate nor skew the speedup.
double TimeMedian(int reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int r = 0; r < std::max(3, reps); ++r) {
    samples.push_back(TimeBest(1, fn));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

bool SamePrimResult(const PrimResult& a, const PrimResult& b) {
  if (a.boxes.size() != b.boxes.size()) return false;
  if (a.best_val_index != b.best_val_index) return false;
  for (size_t i = 0; i < a.boxes.size(); ++i) {
    if (!(a.boxes[i] == b.boxes[i])) return false;
  }
  return true;
}

double TrainLogLoss(const ml::Metamodel& model, const Dataset& d) {
  std::vector<double> prob, y;
  prob.reserve(static_cast<size_t>(d.num_rows()));
  y.reserve(static_cast<size_t>(d.num_rows()));
  for (int i = 0; i < d.num_rows(); ++i) {
    prob.push_back(model.PredictProb(d.row(i)));
    y.push_back(d.y(i) > 0.5 ? 1.0 : 0.0);
  }
  return ml::LogLoss(prob, y);
}

// --- PRIM: the scalar reference of tests/reference_prim.h vs RunPrim, ----
// private index builds included.
KernelResult BenchPrimPeel(const PerfFlags& flags, bool paste) {
  KernelResult result;
  result.name = paste ? "prim_paste" : "prim_peel";
  const Dataset d = RandomData(flags.l_points, flags.dims, flags.seed);
  PrimConfig config;
  config.alpha = 0.05;
  config.paste = paste;
  result.detail = "L=" + std::to_string(flags.l_points) +
                  " d=" + std::to_string(flags.dims) + " alpha=0.05" +
                  (paste ? " +pasting" : "");

  PrimResult ref, opt;
  result.reference_seconds = TimeBest(
      flags.reps, [&] { ref = reference::RunPrimReference(d, d, config); });
  result.optimized_seconds =
      TimeBest(flags.reps, [&] { opt = RunPrim(d, d, config); });
  result.identical = SamePrimResult(ref, opt);
  return result;
}

// --- PRIM: the sorted-view oracle of tests/reference_prim.h vs RunPrim's --
// binned kernel. Both get prebuilt indexes, so the timing isolates the
// peel loops themselves.
KernelResult BenchPrimBinned(const PerfFlags& flags) {
  KernelResult result;
  result.name = "prim_peel_binned";
  const Dataset d = RandomData(flags.l_points, flags.dims, flags.seed);
  const auto index = ColumnIndex::Build(d);
  const auto binned = BinnedIndex::Build(*index);
  PrimConfig config;
  config.alpha = 0.05;
  result.detail = "L=" + std::to_string(flags.l_points) +
                  " d=" + std::to_string(flags.dims) + " alpha=0.05";

  PrimResult ref, opt;
  result.reference_seconds = TimeBest(flags.reps, [&] {
    ref = reference::RunPrimSorted(d, d, config, index.get());
  });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    opt = RunPrim(d, d, config, index.get(), binned.get());
  });
  result.identical = SamePrimResult(ref, opt);
  return result;
}

// --- GBT: scalar reference vs presorted (PR 2 pair). ---------------------
KernelResult BenchGbtFit(const PerfFlags& flags) {
  KernelResult result;
  result.name = "gbt_fit";
  const Dataset d = RandomData(flags.n_train, flags.dims, flags.seed + 1);
  const Dataset probe = RandomData(256, flags.dims, flags.seed + 2);
  ml::GbtConfig config;
  config.num_rounds = flags.quick ? 20 : 100;
  config.max_depth = 4;
  result.detail = "n=" + std::to_string(flags.n_train) +
                  " d=" + std::to_string(flags.dims) +
                  " rounds=" + std::to_string(config.num_rounds);

  ml::GbtConfig ref_config = config;
  ref_config.backend = ml::SplitBackend::kExact;

  ml::GradientBoostedTrees ref(ref_config), opt(config);
  result.reference_seconds =
      TimeBest(flags.reps, [&] { ref.Fit(d, flags.seed + 3); });
  result.optimized_seconds =
      TimeBest(flags.reps, [&] { opt.Fit(d, flags.seed + 3); });
  for (int i = 0; i < probe.num_rows() && result.identical; ++i) {
    result.identical =
        ref.PredictMargin(probe.row(i)) == opt.PredictMargin(probe.row(i));
  }
  return result;
}

// --- GBT: presorted vs histogram (PR 3 pair, approximate). Both fits -----
// get the prebuilt shared indexes, isolating the split-search cost.
KernelResult BenchGbtHist(const PerfFlags& flags) {
  KernelResult result;
  result.name = "gbt_fit_hist";
  result.approximate = true;
  const Dataset d = RandomData(flags.n_train, flags.dims, flags.seed + 1);
  ml::GbtConfig config;
  config.num_rounds = flags.quick ? 20 : 100;
  config.max_depth = 4;
  result.detail = "n=" + std::to_string(flags.n_train) +
                  " d=" + std::to_string(flags.dims) +
                  " rounds=" + std::to_string(config.num_rounds);

  const auto index = ColumnIndex::Build(d);
  const auto binned = BinnedIndex::Build(*index);
  ml::GbtConfig hist_config = config;
  hist_config.backend = ml::SplitBackend::kHistogram;

  ml::GradientBoostedTrees ref(config), opt(hist_config);
  result.reference_seconds = TimeBest(
      flags.reps, [&] { ref.Fit(d, flags.seed + 3, index.get()); });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    opt.Fit(d, flags.seed + 3, index.get(), binned.get());
  });
  result.quality_delta = std::fabs(TrainLogLoss(ref, d) - TrainLogLoss(opt, d));
  result.identical = result.quality_delta == 0.0;
  return result;
}

// --- RF: scalar reference vs presorted (PR 2 pair). ----------------------
KernelResult BenchRfFit(const PerfFlags& flags) {
  KernelResult result;
  result.name = "rf_fit";
  const Dataset d = RandomData(flags.n_train, flags.dims, flags.seed + 4);
  const Dataset probe = RandomData(256, flags.dims, flags.seed + 5);
  ml::RandomForestConfig config;
  config.num_trees = flags.quick ? 10 : 50;
  result.detail = "n=" + std::to_string(flags.n_train) +
                  " d=" + std::to_string(flags.dims) +
                  " trees=" + std::to_string(config.num_trees);

  ml::RandomForestConfig ref_config = config;
  ref_config.backend = ml::SplitBackend::kExact;
  ml::RandomForest ref(ref_config), opt(config);
  result.reference_seconds =
      TimeBest(flags.reps, [&] { ref.Fit(d, flags.seed + 6); });
  result.optimized_seconds =
      TimeBest(flags.reps, [&] { opt.Fit(d, flags.seed + 6); });
  for (int i = 0; i < probe.num_rows() && result.identical; ++i) {
    result.identical =
        ref.PredictProb(probe.row(i)) == opt.PredictProb(probe.row(i));
  }
  return result;
}

// --- RF: presorted vs histogram (PR 3 pair, approximate). ----------------
KernelResult BenchRfHist(const PerfFlags& flags) {
  KernelResult result;
  result.name = "rf_fit_hist";
  result.approximate = true;
  const Dataset d = RandomData(flags.n_train, flags.dims, flags.seed + 4);
  ml::RandomForestConfig config;
  config.num_trees = flags.quick ? 10 : 50;
  result.detail = "n=" + std::to_string(flags.n_train) +
                  " d=" + std::to_string(flags.dims) +
                  " trees=" + std::to_string(config.num_trees);

  const auto index = ColumnIndex::Build(d);
  const auto binned = BinnedIndex::Build(*index);
  ml::RandomForestConfig hist_config = config;
  hist_config.backend = ml::SplitBackend::kHistogram;
  ml::RandomForest ref(config), opt(hist_config);
  result.reference_seconds = TimeBest(
      flags.reps, [&] { ref.Fit(d, flags.seed + 6, index.get()); });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    opt.Fit(d, flags.seed + 6, index.get(), binned.get());
  });
  result.quality_delta = std::fabs(TrainLogLoss(ref, d) - TrainLogLoss(opt, d));
  result.identical = result.quality_delta == 0.0;
  return result;
}

// --- Metamodel inference: the per-row oracle (tests/reference_metamodel.h,
// which re-reads the serialized model and walks it one row at a time) vs
// PredictBlock over blocks of the relabel pass's default size. Exact: every
// probability must match the oracle bit for bit.
KernelResult BenchPredictBlock(const PerfFlags& flags, ml::MetamodelKind kind) {
  KernelResult result;
  result.name = "metamodel_predict_block_" + ml::MetamodelSuffix(kind);
  const Dataset train = RandomData(flags.n_train, flags.dims, flags.seed + 13);
  const std::unique_ptr<ml::Metamodel> model =
      ml::FitDefault(kind, train, flags.seed + 14);
  util::ByteWriter bytes;
  ml::SerializeMetamodel(*model, kind, &bytes);
  const reference::MetamodelOracle oracle(kind, bytes.data());
  const int n = std::max(flags.l_points, 20000);
  const int m = flags.dims;
  const Dataset probe = RandomData(n, m, flags.seed + 15);
  result.detail = "L=" + std::to_string(n) + " d=" + std::to_string(m) +
                  " n_train=" + std::to_string(flags.n_train);

  constexpr int kBlockRows = 8192;
  std::vector<double> expected(static_cast<size_t>(n));
  std::vector<double> out(static_cast<size_t>(n));
  result.reference_seconds = TimeBest(flags.reps, [&] {
    for (int i = 0; i < n; ++i) {
      expected[static_cast<size_t>(i)] = oracle.Predict(probe.row(i));
    }
  });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    for (int r0 = 0; r0 < n; r0 += kBlockRows) {
      model->PredictBlock(
          la::ConstMatrixView(probe.row(r0), std::min(kBlockRows, n - r0), m),
          out.data() + r0);
    }
  });
  result.identical = oracle.ok() && std::memcmp(expected.data(), out.data(),
                                                expected.size() *
                                                    sizeof(double)) == 0;
  return result;
}

// --- Histogram accumulation: scalar reference vs the dispatched packed ---
// pair kernel (AVX2 fused 128-bit bin updates when available). The pack
// runs outside the timed region, as in GBT: it is paid once per boosting
// round and amortized over depth x features accumulations. Repeated
// passes over one node-sized id set amortize timer granularity; bins must
// match bit for bit. n is floored at 100k even in quick mode -- at the
// old quick size (3000 rows) the whole working set sat in L1 and the
// measurement was timer jitter, not kernel speed.
KernelResult BenchHistAccumulate(const PerfFlags& flags) {
  KernelResult result;
  result.name = "hist_accumulate";
  const int n = std::max(flags.l_points, 100000);
  Rng rng(flags.seed + 8);
  std::vector<uint8_t> codes(static_cast<size_t>(n));
  std::vector<double> g(static_cast<size_t>(n)), h(static_cast<size_t>(n));
  std::vector<int> ids(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    codes[static_cast<size_t>(i)] = static_cast<uint8_t>(rng.UniformInt(256));
    g[static_cast<size_t>(i)] = rng.Normal();
    h[static_cast<size_t>(i)] = rng.Uniform();
    ids[static_cast<size_t>(i)] = i;
  }
  rng.Shuffle(&ids);  // gather pattern, as in a partitioned tree node
  const int passes = flags.quick ? 20 : 200;
  result.detail = "n=" + std::to_string(n) + " bins=256 passes=" +
                  std::to_string(passes) + " simd=" +
                  util::SimdLevelName(util::ActiveSimdLevel());

  util::PackedDoubleBuffer pairs;
  ml::PackGradientPairs(g.data(), h.data(), n, &pairs);

  std::vector<ml::HistBin> ref_bins(256), opt_bins(256);
  result.reference_seconds = TimeBest(flags.reps, [&] {
    for (int p = 0; p < passes; ++p) {
      std::fill(ref_bins.begin(), ref_bins.end(), ml::HistBin());
      ml::AccumulateHistogramReference(codes.data(), ids.data(), n, g.data(),
                                       h.data(), ref_bins.data());
    }
  });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    for (int p = 0; p < passes; ++p) {
      std::fill(opt_bins.begin(), opt_bins.end(), ml::HistBin());
      ml::AccumulateHistogramPairs(codes.data(), ids.data(), n, pairs.data(),
                                   opt_bins.data());
    }
  });
  for (int b = 0; b < 256 && result.identical; ++b) {
    result.identical = ref_bins[static_cast<size_t>(b)].g ==
                           opt_bins[static_cast<size_t>(b)].g &&
                       ref_bins[static_cast<size_t>(b)].h ==
                           opt_bins[static_cast<size_t>(b)].h &&
                       ref_bins[static_cast<size_t>(b)].count ==
                           opt_bins[static_cast<size_t>(b)].count;
  }
  return result;
}

// --- Quantized-gradient histogram: int16 packed pairs, int64 bin sums ---
// (4 bytes per row instead of 16: 4x the gradient density per cache
// line). Integer sums are associative, so every dispatch path must be
// exactly equal to the reference -- not just bit-close.
KernelResult BenchHistAccumulateQ16(const PerfFlags& flags) {
  KernelResult result;
  result.name = "hist_accumulate_q16";
  const int n = std::max(flags.l_points, 100000);
  Rng rng(flags.seed + 8);
  std::vector<uint8_t> codes(static_cast<size_t>(n));
  std::vector<double> g(static_cast<size_t>(n)), h(static_cast<size_t>(n));
  std::vector<int> ids(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    codes[static_cast<size_t>(i)] = static_cast<uint8_t>(rng.UniformInt(256));
    g[static_cast<size_t>(i)] = rng.Normal();
    h[static_cast<size_t>(i)] = rng.Uniform();
    ids[static_cast<size_t>(i)] = i;
  }
  rng.Shuffle(&ids);
  const int passes = flags.quick ? 20 : 200;
  result.detail = "n=" + std::to_string(n) + " bins=256 passes=" +
                  std::to_string(passes) + " simd=" +
                  util::SimdLevelName(util::ActiveSimdLevel());

  std::vector<int16_t> gh16(2 * static_cast<size_t>(n));
  ml::QuantizeGradientPairs(g.data(), h.data(), n, gh16.data());

  std::vector<ml::HistBinQ16> ref_bins(256), opt_bins(256);
  result.reference_seconds = TimeBest(flags.reps, [&] {
    for (int p = 0; p < passes; ++p) {
      std::fill(ref_bins.begin(), ref_bins.end(), ml::HistBinQ16());
      ml::AccumulateHistogramQ16Reference(codes.data(), ids.data(), n,
                                          gh16.data(), ref_bins.data());
    }
  });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    for (int p = 0; p < passes; ++p) {
      std::fill(opt_bins.begin(), opt_bins.end(), ml::HistBinQ16());
      ml::AccumulateHistogramQ16(codes.data(), ids.data(), n, gh16.data(),
                                 opt_bins.data());
    }
  });
  for (int b = 0; b < 256 && result.identical; ++b) {
    result.identical = ref_bins[static_cast<size_t>(b)].g ==
                           opt_bins[static_cast<size_t>(b)].g &&
                       ref_bins[static_cast<size_t>(b)].h ==
                           opt_bins[static_cast<size_t>(b)].h &&
                       ref_bins[static_cast<size_t>(b)].count ==
                           opt_bins[static_cast<size_t>(b)].count;
  }
  return result;
}

// --- Streaming build path: in-memory exact quantization (ColumnIndex + ---
// BinnedIndex) vs the two-pass sketch-binned streaming build, run with
// every fork-join slot held (all inline, one core). Approximate: the two
// packings place boundaries differently (greedy equal-share vs exact-rank
// quantiles), so the quality delta is the worst bin-balance deviation --
// max |bin population - n/bins| / n, which the sketch's rank error bounds
// on this continuous (tie-free) data.
KernelResult BenchStreamedBuild(const PerfFlags& flags) {
  KernelResult result;
  result.name = "binned_build_streamed";
  result.approximate = true;
  const auto data = std::make_shared<Dataset>(
      RandomData(flags.l_points, flags.dims, flags.seed + 9));
  result.detail = "L=" + std::to_string(flags.l_points) +
                  " d=" + std::to_string(flags.dims) + " inline";

  std::shared_ptr<const BinnedIndex> exact;
  result.reference_seconds = TimeBest(flags.reps, [&] {
    exact = BinnedIndex::Build(*ColumnIndex::Build(*data));
  });
  Result<StreamedDataset> streamed = Status::RuntimeError("not run");
  {
    HoldAllSlots hold;
    result.optimized_seconds = TimeBest(flags.reps, [&] {
      MatrixSource source(data);
      streamed = BinnedIndex::BuildStreamed(&source);
    });
  }
  if (!streamed.ok()) {
    result.identical = false;
    result.quality_delta = 1.0;
    return result;
  }
  const double n = static_cast<double>(data->num_rows());
  double worst = 0.0;
  for (int j = 0; j < flags.dims; ++j) {
    const BinnedIndex& index = *streamed->index;
    const double share = n / index.num_bins(j);
    for (int b = 0; b < index.num_bins(j); ++b) {
      const double population =
          index.bin_begin_rank(j, b + 1) - index.bin_begin_rank(j, b);
      worst = std::max(worst, std::fabs(population - share) / n);
    }
  }
  result.quality_delta = worst;
  result.identical = exact->codes(0) == streamed->index->codes(0);
  return result;
}

std::string IndexBytes(const BinnedIndex& index) {
  util::ByteWriter out;
  index.Serialize(&out);
  return out.data();
}

// --- Idle-core kernels: one call run with every fork-join slot held -----
// (the reference: every region inline on the caller) and on an idle
// process (regions fan out onto the idle cores), in the same run. Results
// must be bit-identical; the speedup is what idle cores buy. Both sides
// are the median of at least three runs (TimeMedian).

// The streamed index build: columns of each block sketched and coded on
// idle cores. Serialized index bytes must match.
KernelResult BenchStreamedBuildIdleCores(const PerfFlags& flags) {
  KernelResult result;
  result.name = "binned_build_streamed_parallel";
  const auto data = std::make_shared<Dataset>(
      RandomData(flags.l_points, flags.dims, flags.seed + 9));
  result.detail = "L=" + std::to_string(flags.l_points) +
                  " d=" + std::to_string(flags.dims) + " idle-vs-busy";
  const auto build = [&] {
    MatrixSource source(data);
    return BinnedIndex::BuildStreamed(&source);
  };
  Result<StreamedDataset> busy = Status::RuntimeError("not run");
  Result<StreamedDataset> idle = Status::RuntimeError("not run");
  {
    HoldAllSlots hold;
    result.reference_seconds = TimeMedian(flags.reps, [&] { busy = build(); });
  }
  result.optimized_seconds = TimeMedian(flags.reps, [&] { idle = build(); });
  result.identical = busy.ok() && idle.ok() &&
                     IndexBytes(*busy->index) == IndexBytes(*idle->index);
  return result;
}

std::string ModelBytes(const ml::Metamodel& model, ml::MetamodelKind kind) {
  util::ByteWriter out;
  ml::SerializeMetamodel(model, kind, &out);
  return out.data();
}

// CV-tuned metamodel fit: (grid cell x fold) fits on idle cores, then the
// refit (RF: its trees) on idle cores. Serialized model bytes must match.
KernelResult BenchTuneAndFitIdleCores(const PerfFlags& flags,
                                      ml::MetamodelKind kind) {
  KernelResult result;
  result.name = std::string("tune_and_fit_") + ml::MetamodelSuffix(kind);
  const int n = flags.quick ? flags.n_train : 400;
  const int dims = flags.quick ? flags.dims : 20;
  const Dataset d = RandomData(n, dims, flags.seed + 30);
  result.detail = "n=" + std::to_string(n) + " d=" + std::to_string(dims) +
                  " folds=5 idle-vs-busy";
  std::unique_ptr<ml::Metamodel> busy, idle;
  {
    HoldAllSlots hold;
    result.reference_seconds = TimeMedian(flags.reps, [&] {
      busy = ml::TuneAndFit(kind, d, flags.seed + 31);
    });
  }
  result.optimized_seconds = TimeMedian(flags.reps, [&] {
    idle = ml::TuneAndFit(kind, d, flags.seed + 31);
  });
  result.identical = ModelBytes(*busy, kind) == ModelBytes(*idle, kind);
  return result;
}

// PBc's plan: the alpha CV grid and the (fold x m) bumping runs on idle
// cores. The chosen alpha and m must match.
KernelResult BenchPlanPbcIdleCores(const PerfFlags& flags) {
  KernelResult result;
  result.name = "plan_pbc";
  const int n = 400;
  const int dims = flags.quick ? flags.dims : 20;
  const Dataset d = RandomData(n, dims, flags.seed + 32);
  RunOptions options;
  options.seed = flags.seed + 33;
  options.bumping_q = 20;  // the quick tables' Q
  const MethodSpec spec = MethodSpec::Parse("PBc").value();
  result.detail = "n=" + std::to_string(n) + " d=" + std::to_string(dims) +
                  " Q=" + std::to_string(options.bumping_q) +
                  " idle-vs-busy";
  MethodPlan busy, idle;
  {
    HoldAllSlots hold;
    result.reference_seconds = TimeMedian(
        flags.reps, [&] { busy = PlanMethod(spec, d, options); });
  }
  result.optimized_seconds =
      TimeMedian(flags.reps, [&] { idle = PlanMethod(spec, d, options); });
  result.identical = busy.alpha == idle.alpha && busy.m == idle.m;
  return result;
}

// PRIM with bumping at the paper's CV-fold size: N = 320, m = M/2, the
// quick tables' Q = 20, against the oracle of tests/reference_bumping.h
// (a materialized, re-sorted sample per replicate, per-box validation
// scans, the pairwise Pareto filter). Both run with every fork-join slot
// held, so the replicates run inline and the speedup is per-replicate
// work, not idle cores. Boxes and curves must match bit for bit.
KernelResult BenchBumping(const PerfFlags& flags) {
  KernelResult result;
  result.name = "bumping_q20";
  const int n = 320;
  const Dataset d = RandomData(n, flags.dims, flags.seed + 34);
  BumpingConfig config;
  config.q = 20;
  config.m = std::max(1, flags.dims / 2);
  result.detail = "N=" + std::to_string(n) +
                  " d=" + std::to_string(flags.dims) +
                  " m=" + std::to_string(config.m) + " Q=20 inline";
  BumpingResult ref, opt;
  HoldAllSlots hold;
  result.reference_seconds = TimeBest(flags.reps, [&] {
    ref = reference::RunPrimBumpingReference(d, d, config, flags.seed);
  });
  result.optimized_seconds = TimeBest(
      flags.reps, [&] { opt = RunPrimBumping(d, d, config, flags.seed); });
  result.identical = ref.boxes == opt.boxes &&
                     ref.val_curve.size() == opt.val_curve.size();
  for (size_t i = 0; result.identical && i < ref.val_curve.size(); ++i) {
    result.identical =
        ref.val_curve[i].recall == opt.val_curve[i].recall &&
        ref.val_curve[i].precision == opt.val_curve[i].precision;
  }
  return result;
}

// --- Streamed PRIM: the sorted-view oracle on the materialized matrix ----
// vs RunPrimStreamed on codes alone. Discrete-valued data keeps both in
// the exact regime, so the boxes must be bit-identical; both get prebuilt
// indexes, isolating the peel loops.
KernelResult BenchPrimStreamed(const PerfFlags& flags) {
  KernelResult result;
  result.name = "prim_peel_streamed";
  const auto data = std::make_shared<Dataset>(
      RandomData(flags.l_points, flags.dims, flags.seed, /*distinct=*/128));
  const auto index = ColumnIndex::Build(*data);
  MatrixSource source(data);
  auto streamed = BinnedIndex::BuildStreamed(&source);
  PrimConfig config;
  config.alpha = 0.05;
  result.detail = "L=" + std::to_string(flags.l_points) +
                  " d=" + std::to_string(flags.dims) +
                  " alpha=0.05 128-distinct";
  if (!streamed.ok()) {
    result.identical = false;
    return result;
  }

  PrimResult ref, opt;
  result.reference_seconds = TimeBest(flags.reps, [&] {
    ref = reference::RunPrimSorted(*data, *data, config, index.get());
  });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    opt = RunPrimStreamed(*streamed->index, streamed->y, config);
  });
  result.identical = SamePrimResult(ref, opt);
  return result;
}

// Grid-valued sampler: every sampled column has `distinct` values, keeping
// the REDS streamed-vs-materialized pair in the exact-pack regime where
// the results must match bit for bit.
sampling::PointSampler GridSampler(int distinct) {
  return [distinct](Rng* rng, int dim, double* out) {
    for (int j = 0; j < dim; ++j) {
      out[j] = static_cast<double>(rng->UniformInt(
                   static_cast<uint64_t>(distinct))) /
               distinct;
    }
  };
}

// --- REDS relabeling: materialize L labeled points + exact quantization ---
// vs the streamed pipeline (generator source -> two-pass sketch build).
// The metamodel is prefit and shared through the provider hook, so the
// timing isolates sampling + labeling + indexing -- the part the streamed
// plan restructures. Codes must match bit for bit (128-distinct grid).
KernelResult BenchRedsRelabelStreamed(const PerfFlags& flags) {
  KernelResult result;
  result.name = "reds_relabel_streamed";
  const Dataset train = RandomData(flags.n_train / 4, flags.dims,
                                   flags.seed + 10, /*distinct=*/64);
  const auto prefit = std::shared_ptr<const ml::Metamodel>(
      ml::FitDefault(ml::MetamodelKind::kGbt, train, flags.seed + 11));
  RedsConfig config;
  config.tune_metamodel = false;
  config.num_new_points = flags.l_points;
  config.sampler = GridSampler(128);
  config.metamodel_provider = [prefit](const Dataset&, ml::MetamodelKind,
                                       bool, ml::TuningBudget,
                                       ml::SplitBackend, ml::GrowthPolicy,
                                       int, uint64_t) {
    return prefit;
  };
  result.detail = "L=" + std::to_string(flags.l_points) +
                  " d=" + std::to_string(flags.dims) + " 128-distinct";

  std::shared_ptr<const BinnedIndex> exact;
  result.reference_seconds = TimeBest(flags.reps, [&] {
    const RedsRelabeling r = RedsRelabel(train, config, flags.seed + 12);
    exact = BinnedIndex::Build(r.new_data);
  });
  Result<StreamedDataset> streamed = Status::RuntimeError("not run");
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    RedsStreamedRelabeling r =
        RedsRelabelStreamed(train, config, flags.seed + 12);
    streamed = BinnedIndex::BuildStreamed(r.new_data.get());
  });
  result.identical = streamed.ok();
  for (int j = 0; j < flags.dims && result.identical; ++j) {
    result.identical = exact->codes(j) == streamed->index->codes(j);
  }
  return result;
}

// --- End-to-end REDS discovery ("RPx"): the materialized oracle of -------
// tests/reference_method.h (RedsRelabel into a dense matrix, then RunPrim)
// vs RunMethod's streamed path (metamodel fit + relabel + index + peel).
// On grid-sampled points both must discover the identical box sequence.
KernelResult BenchMethodRedsStreamed(const PerfFlags& flags) {
  KernelResult result;
  result.name = "method_reds_streamed_e2e";
  const Dataset train = RandomData(flags.n_train / 4, flags.dims,
                                   flags.seed + 13, /*distinct=*/64);
  RunOptions options;
  options.l_prim = flags.l_points;
  options.tune_metamodel = false;
  options.sampler = GridSampler(128);
  options.seed = flags.seed + 14;
  result.detail = "RPx N=" + std::to_string(flags.n_train / 4) +
                  " L=" + std::to_string(flags.l_points) +
                  " d=" + std::to_string(flags.dims) + " 128-distinct";
  const auto spec = MethodSpec::Parse("RPx");

  MethodOutput ref, opt;
  result.reference_seconds = TimeBest(flags.reps, [&] {
    ref = reference::RunRedsPrimMaterialized(*spec, train, options);
  });
  result.optimized_seconds = TimeBest(
      flags.reps, [&] { opt = RunMethod(*spec, train, options); });
  result.identical = ref.trajectory.size() == opt.trajectory.size() &&
                     ref.last_box == opt.last_box;
  for (size_t i = 0; i < ref.trajectory.size() && result.identical; ++i) {
    result.identical = ref.trajectory[i] == opt.trajectory[i];
  }
  return result;
}

// --- Observability overhead: the streamed PRIM peel loop undecorated vs --
// the identical loop under a bound Trace + MetricsRegistry (every span it
// opens is recorded and fed into stage histograms -- the engine's traced
// configuration). The delta is what instrumentation costs; the budget is
// 1% of kernel time, with sub-2ms deltas written off as timer jitter.
// Results must stay bit-identical: observation must never perturb the
// computation.
KernelResult BenchMetricsOverhead(const PerfFlags& flags) {
  KernelResult result;
  result.name = "metrics_overhead";
  result.approximate = true;
  result.quality_tolerance = 0.01;
  const auto data = std::make_shared<Dataset>(
      RandomData(flags.l_points, flags.dims, flags.seed, /*distinct=*/128));
  MatrixSource source(data);
  auto streamed = BinnedIndex::BuildStreamed(&source);
  PrimConfig config;
  config.alpha = 0.05;
  const int passes = flags.quick ? 4 : 6;
  result.detail = "L=" + std::to_string(flags.l_points) +
                  " d=" + std::to_string(flags.dims) + " passes=" +
                  std::to_string(passes) + " traced-vs-untraced";
  if (!streamed.ok()) {
    result.identical = false;
    result.quality_delta = 1.0;
    return result;
  }

  PrimResult ref, opt;
  result.reference_seconds = TimeBest(flags.reps, [&] {
    for (int p = 0; p < passes; ++p) {
      ref = RunPrimStreamed(*streamed->index, streamed->y, config);
    }
  });
  obs::MetricsRegistry registry;
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    obs::Trace trace("bench-metrics-overhead", &registry);
    obs::TraceBinding binding(&trace);
    for (int p = 0; p < passes; ++p) {
      opt = RunPrimStreamed(*streamed->index, streamed->y, config);
    }
  });
  result.identical = SamePrimResult(ref, opt);
  const double delta = result.optimized_seconds - result.reference_seconds;
  result.quality_delta = delta <= 0.002 || result.reference_seconds <= 0.0
                             ? 0.0
                             : delta / result.reference_seconds;
  return result;
}

KernelResult BenchBi(const PerfFlags& flags) {
  KernelResult result;
  result.name = "bi_search";
  // BI runs on the smaller L (paper: l_bi = 10k).
  const int n = std::max(200, flags.l_points / 10);
  const Dataset d = RandomData(n, flags.dims, flags.seed + 7);
  BiConfig config;
  result.detail = "L=" + std::to_string(n) + " d=" +
                  std::to_string(flags.dims) + " beam=1";

  BiResult ref, opt;
  result.reference_seconds = TimeBest(
      flags.reps, [&] { ref = reference::RunBiReference(d, config); });
  result.optimized_seconds =
      TimeBest(flags.reps, [&] { opt = RunBi(d, config); });
  result.identical = ref.box == opt.box;
  return result;
}

// --- CV tuning: the materialized oracle of tests/reference_tuning.h ------
// (SubsetRows copies -- one training matrix + one index per fold) vs
// TuneAndFit (row views over a single shared full-data index, O(one fold)
// extra residency). Presorted backend keeps the fold views exact, so the
// winning cell, the refit model, and every probe prediction must be
// bit-identical -- the speedup is a bonus on top of the residency win the
// memory smoke asserts separately.
KernelResult BenchTuningStreamedFolds(const PerfFlags& flags) {
  KernelResult result;
  result.name = "tuning_streamed_folds";
  const int n = flags.quick ? flags.n_train : 2500;
  const Dataset d = RandomData(n, flags.dims, flags.seed + 15);
  const Dataset probe = RandomData(256, flags.dims, flags.seed + 16);
  ml::TuningConfig config;
  config.folds = 3;
  result.detail = "gbt n=" + std::to_string(n) +
                  " d=" + std::to_string(flags.dims) + " folds=3 grid=4";

  std::unique_ptr<ml::Metamodel> ref, opt;
  result.reference_seconds = TimeBest(flags.reps, [&] {
    ref = reference::TuneAndFitMaterialized(ml::MetamodelKind::kGbt, d,
                                            flags.seed + 17, config);
  });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    opt = ml::TuneAndFit(ml::MetamodelKind::kGbt, d, flags.seed + 17,
                         config);
  });
  result.identical = ref != nullptr && opt != nullptr;
  for (int i = 0; i < probe.num_rows() && result.identical; ++i) {
    result.identical =
        ref->PredictProb(probe.row(i)) == opt->PredictProb(probe.row(i));
  }
  return result;
}

// --- GBT growth policies: depth-wise depth-8 trees (up to 255 leaves per --
// round) vs leaf-wise growth capped at 64 best-gain leaves. Best-first
// expansion spends its leaf budget where the gain is, so the capped tree
// matches the deeper one on held-out loss while expanding ~4x fewer
// nodes -- the quality delta is measured on a held-out probe, not the
// training set, precisely because the extra depth-wise leaves buy mostly
// memorization.
KernelResult BenchGbtLeafwise(const PerfFlags& flags) {
  KernelResult result;
  result.name = "gbt_leafwise";
  result.approximate = true;
  result.quality_tolerance = 0.1;
  const int n = flags.quick ? flags.l_points : 100000;
  const Dataset d = RandomData(n, flags.dims, flags.seed + 18);
  const Dataset probe = RandomData(4096, flags.dims, flags.seed + 19);
  ml::GbtConfig depth_wise;
  depth_wise.num_rounds = flags.quick ? 20 : 50;
  depth_wise.max_depth = 8;
  depth_wise.backend = ml::SplitBackend::kHistogram;
  ml::GbtConfig leaf_wise = depth_wise;
  leaf_wise.growth = ml::GrowthPolicy::kLeafWise;
  leaf_wise.max_leaves = 64;
  result.detail = "n=" + std::to_string(n) +
                  " d=" + std::to_string(flags.dims) +
                  " rounds=" + std::to_string(depth_wise.num_rounds) +
                  " depth8-vs-64leaf";

  const auto index = ColumnIndex::Build(d);
  const auto binned = BinnedIndex::Build(*index);
  ml::GradientBoostedTrees ref(depth_wise), opt(leaf_wise);
  result.reference_seconds = TimeBest(flags.reps, [&] {
    ref.Fit(d, flags.seed + 20, index.get(), binned.get());
  });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    opt.Fit(d, flags.seed + 20, index.get(), binned.get());
  });
  result.quality_delta =
      std::fabs(TrainLogLoss(ref, probe) - TrainLogLoss(opt, probe));
  result.identical = result.quality_delta == 0.0;
  return result;
}

// --- Engine serving path: a burst of identical REDS requests against a ----
// cold engine with single-flight coalescing off (every duplicate re-walks
// the cache tiers and re-runs its own discovery) vs on (one leader does
// the work once; duplicates only re-evaluate their own metrics against the
// shared output). Every handle in both runs must report the same final
// box.
KernelResult BenchEngineCoalescedBatch(const PerfFlags& flags) {
  KernelResult result;
  result.name = "engine_coalesced_batch";
  const int burst = 8;
  const auto train = std::make_shared<const Dataset>(
      RandomData(flags.n_train / 4, flags.dims, flags.seed + 21));
  RunOptions options;
  options.l_prim = flags.l_points;
  options.tune_metamodel = false;
  options.seed = flags.seed + 22;
  result.detail = "RPx x" + std::to_string(burst) +
                  " L=" + std::to_string(flags.l_points) +
                  " threads=" + std::to_string(flags.threads);

  const auto run_burst = [&](bool coalesce, Box* last_box) {
    engine::EngineConfig config;
    config.threads = flags.threads;
    config.enable_persistent_cache = false;
    config.coalesce_requests = coalesce;
    engine::DiscoveryEngine engine(config);
    std::vector<engine::JobHandle> jobs;
    for (int i = 0; i < burst; ++i) {
      engine::DiscoveryRequest request;
      request.train = train;
      request.method = "RPx";
      request.options = options;
      jobs.push_back(engine.Submit(std::move(request)));
    }
    engine.WaitAll();
    bool same = true;
    for (const engine::JobHandle& job : jobs) {
      same = same && job->state() == engine::JobState::kDone &&
             job->output().last_box == jobs.front()->output().last_box;
    }
    *last_box = jobs.front()->output().last_box;
    return same;
  };

  Box ref_box, opt_box;
  bool agree = true;
  result.reference_seconds = TimeBest(
      flags.reps, [&] { agree = run_burst(false, &ref_box) && agree; });
  result.optimized_seconds = TimeBest(
      flags.reps, [&] { agree = run_burst(true, &opt_box) && agree; });
  result.identical = agree && ref_box == opt_box;
  return result;
}

// --- Serving over the wire: the socket tax on a warm request. The same ---
// warm eager RPx request submitted straight into the engine (reference)
// vs through DiscoveryServer's epoll loop over a unix socket (optimized
// column = full wire roundtrip: encode, decode pool, admission, epoll
// write-back). Speedup < 1 IS the measurement -- it bounds the serving
// overhead -- and the wire answer must match the in-process box exactly.
KernelResult BenchNetWarmRoundtrip(const PerfFlags& flags) {
  KernelResult result;
  result.name = "net_warm_roundtrip";
  result.detail = "RPx warm L=" + std::to_string(flags.l_points) +
                  " d=" + std::to_string(flags.dims) + " unix-socket";

  engine::EngineConfig engine_config;
  engine_config.threads = flags.threads;
  engine_config.enable_persistent_cache = false;
  engine::DiscoveryEngine engine(engine_config);
  net::ServerConfig server_config;
  server_config.address =
      "unix:/tmp/reds_bench_warm_" + std::to_string(::getpid()) + ".sock";
  // Result cache off: this kernel bounds the socket tax on a real warm
  // *engine* run, so the repeats must reach the engine, not replay.
  server_config.result_cache_entries = 0;
  net::DiscoveryServer server(&engine, server_config);
  if (!server.Start().ok()) {
    result.identical = false;
    return result;
  }
  net::NetClient client;
  if (!client.Connect(server.address()).ok() ||
      !client.Hello("bench_perf_kernels").ok()) {
    result.identical = false;
    return result;
  }

  uint64_t next_id = 1;
  net::SubmitRequest wire =
      net::MakeSubmit(0, "RPx", net::DataMode::kEager, flags.n_train,
                      flags.dims, flags.seed + 23, 0.05, flags.l_points);
  const auto wire_once = [&]() -> Box {
    net::SubmitRequest request = wire;
    request.request_id = next_id++;
    auto outcome = client.Submit(request);
    auto reply = client.WaitResult(request.request_id);
    if (!outcome.ok() || !reply.ok() || reply->done.failed) return Box();
    return reply->done.last_box;
  };

  // The exact dataset the server materializes from the spec, for the
  // in-process run.
  auto source = shard::MakeSource(wire.source, 1, 0);
  const auto train = std::make_shared<const Dataset>(
      std::move(ReadAll(source->get(), wire.source.block_rows).value()));
  const auto direct_once = [&]() -> Box {
    engine::DiscoveryRequest request;
    request.train = train;
    request.method = wire.method;
    request.options.default_alpha = wire.alpha;
    request.options.min_points = wire.min_points;
    request.options.l_prim = wire.l_prim;
    request.options.seed = wire.options_seed;
    request.options.tune_metamodel = false;
    engine::JobHandle job = engine.Submit(std::move(request));
    job->Wait();
    return job->state() == engine::JobState::kDone ? job->output().last_box
                                                   : Box();
  };

  Box warm_box = wire_once();  // cold pass: warm every cache, untimed
  Box direct_box = warm_box, wire_box = warm_box;
  result.reference_seconds =
      TimeBest(flags.reps, [&] { direct_box = direct_once(); });
  result.optimized_seconds =
      TimeBest(flags.reps, [&] { wire_box = wire_once(); });
  result.identical = wire_box.dim() > 0 && wire_box == direct_box &&
                     wire_box == warm_box;
  return result;
}

// --- Serving over the wire: concurrency past one connection. The same ----
// warm request set issued one-at-a-time on a single connection
// (reference) vs pipelined from several client threads at once
// (optimized). Identical completed specs replay from the result cache and
// identical in-flight specs coalesce, so concurrent clients scale
// throughput instead of re-running discoveries; every reply must carry
// the serial run's box.
KernelResult BenchNetSaturationThroughput(const PerfFlags& flags) {
  KernelResult result;
  result.name = "net_saturation_throughput";
  const int total = flags.quick ? 24 : 64;
  const int clients = std::min(8, std::max(2, flags.threads));
  const int pool = 4;  // distinct specs cycled through the request stream
  result.detail = "RPx x" + std::to_string(total) + " pool=" +
                  std::to_string(pool) + " conns=" + std::to_string(clients);

  engine::EngineConfig engine_config;
  engine_config.threads = flags.threads;
  engine_config.enable_persistent_cache = false;
  engine::DiscoveryEngine engine(engine_config);
  net::ServerConfig server_config;
  server_config.address =
      "unix:/tmp/reds_bench_sat_" + std::to_string(::getpid()) + ".sock";
  net::DiscoveryServer server(&engine, server_config);
  if (!server.Start().ok()) {
    result.identical = false;
    return result;
  }

  const auto spec_for = [&](int slot) {
    return net::MakeSubmit(0, "RPx", net::DataMode::kEager,
                           flags.n_train / 2, flags.dims,
                           flags.seed + 31 + static_cast<uint64_t>(slot),
                           0.05, flags.l_points);
  };

  // Warm pass, untimed: one run per distinct spec fills every cache and
  // records the reference box each later reply must reproduce.
  std::vector<Box> expected;
  {
    net::NetClient client;
    if (!client.Connect(server.address()).ok() ||
        !client.Hello("warmup").ok()) {
      result.identical = false;
      return result;
    }
    for (int slot = 0; slot < pool; ++slot) {
      net::SubmitRequest request = spec_for(slot);
      request.request_id = static_cast<uint64_t>(slot) + 1;
      if (!client.Submit(request).ok()) {
        result.identical = false;
        return result;
      }
      auto reply = client.WaitResult(request.request_id);
      if (!reply.ok() || reply->done.failed) {
        result.identical = false;
        return result;
      }
      expected.push_back(reply->done.last_box);
    }
  }

  std::atomic<bool> agree{true};
  const auto run_span = [&](net::NetClient* client, uint64_t id_base,
                            int begin, int end) {
    // Pipelined: submit the whole span, then collect -- in-flight depth is
    // the span length, which is what saturates the loop.
    for (int i = begin; i < end; ++i) {
      net::SubmitRequest request = spec_for(i % pool);
      request.request_id = id_base + static_cast<uint64_t>(i);
      auto outcome = client->Submit(request);
      if (!outcome.ok() ||
          outcome->kind != net::SubmitOutcome::Kind::kAdmitted) {
        agree = false;
        return;
      }
    }
    for (int i = begin; i < end; ++i) {
      auto reply = client->WaitResult(id_base + static_cast<uint64_t>(i));
      if (!reply.ok() || reply->done.failed ||
          !(reply->done.last_box == expected[i % pool])) {
        agree = false;
        return;
      }
    }
  };

  result.reference_seconds = TimeBest(flags.reps, [&] {
    net::NetClient client;
    if (!client.Connect(server.address()).ok() ||
        !client.Hello("serial").ok()) {
      agree = false;
      return;
    }
    for (int i = 0; i < total; ++i) {  // strictly one in flight
      run_span(&client, 1000, i, i + 1);
    }
  });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        net::NetClient client;
        if (!client.Connect(server.address()).ok() ||
            !client.Hello("conn" + std::to_string(c)).ok()) {
          agree = false;
          return;
        }
        const int per = (total + clients - 1) / clients;
        run_span(&client, 100000ull * static_cast<uint64_t>(c + 1),
                 c * per, std::min(total, (c + 1) * per));
      });
    }
    for (auto& t : threads) t.join();
  });
  result.identical = agree.load();
  return result;
}

void WriteJson(const PerfFlags& flags, const std::vector<KernelResult>& results,
               std::FILE* stream) {
  std::fprintf(stream, "{\n");
  std::fprintf(stream, "  \"bench\": \"bench_perf_kernels\",\n");
  std::fprintf(stream, "  \"mode\": \"%s\",\n", flags.quick ? "quick" : "full");
  std::fprintf(stream,
               "  \"config\": {\"n_train\": %d, \"l_points\": %d, \"dims\": "
               "%d, \"reps\": %d, \"threads\": %d, \"seed\": %llu, "
               "\"simd\": \"%s\"},\n",
               flags.n_train, flags.l_points, flags.dims, flags.reps,
               flags.threads, static_cast<unsigned long long>(flags.seed),
               util::SimdLevelName(util::ActiveSimdLevel()));
  std::fprintf(stream, "  \"kernels\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    std::fprintf(stream,
                 "    {\"name\": \"%s\", \"detail\": \"%s\", "
                 "\"reference_seconds\": %.6f, \"optimized_seconds\": %.6f, "
                 "\"speedup\": %.3f, \"identical\": %s, \"approximate\": %s, "
                 "\"quality_delta\": %.6f, \"quality_tolerance\": %.3f, "
                 "\"ok\": %s}%s\n",
                 r.name.c_str(), r.detail.c_str(), r.reference_seconds,
                 r.optimized_seconds, r.Speedup(),
                 r.identical ? "true" : "false",
                 r.approximate ? "true" : "false", r.quality_delta,
                 r.quality_tolerance, r.Ok() ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(stream, "  ]\n}\n");
}

// Minimal extraction of {name -> optimized_seconds} from a JSON file this
// harness wrote earlier (one kernel object per line).
bool LoadReferenceTimings(const std::string& path,
                          std::vector<std::pair<std::string, double>>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const size_t name_key = line.find("\"name\": \"");
    if (name_key == std::string::npos) continue;
    const size_t name_begin = name_key + std::strlen("\"name\": \"");
    const size_t name_end = line.find('"', name_begin);
    if (name_end == std::string::npos) continue;
    const size_t opt_key = line.find("\"optimized_seconds\": ");
    if (opt_key == std::string::npos) continue;
    const double seconds =
        std::atof(line.c_str() + opt_key +
                  std::strlen("\"optimized_seconds\": "));
    out->emplace_back(line.substr(name_begin, name_end - name_begin), seconds);
  }
  return !out->empty();
}

// Regression gate: every kernel in the committed reference must be present
// and not slower than tolerance x its reference timing (plus a small
// absolute slack -- smoke timings are milliseconds and jittery).
bool CheckAgainstReference(const PerfFlags& flags,
                           const std::vector<KernelResult>& results) {
  std::vector<std::pair<std::string, double>> reference;
  if (!LoadReferenceTimings(flags.check_against, &reference)) {
    std::fprintf(stderr, "cannot read reference timings from %s\n",
                 flags.check_against.c_str());
    return false;
  }
  constexpr double kAbsoluteSlack = 0.05;  // seconds
  bool ok = true;
  for (const auto& [name, ref_seconds] : reference) {
    const KernelResult* current = nullptr;
    for (const KernelResult& r : results) {
      if (r.name == name) {
        current = &r;
        break;
      }
    }
    if (current == nullptr) {
      std::fprintf(stderr, "CHECK FAIL: kernel %s missing from this run\n",
                   name.c_str());
      ok = false;
      continue;
    }
    const double limit = ref_seconds * flags.check_tolerance + kAbsoluteSlack;
    if (current->optimized_seconds > limit) {
      std::fprintf(stderr,
                   "CHECK FAIL: %s took %.3fs, reference %.3fs "
                   "(limit %.3fs at %.1fx)\n",
                   name.c_str(), current->optimized_seconds, ref_seconds,
                   limit, flags.check_tolerance);
      ok = false;
    } else {
      std::printf("check ok: %-26s %.3fs <= %.3fs\n", name.c_str(),
                  current->optimized_seconds, limit);
    }
  }
  return ok;
}

// CPU time of the calling thread; excludes time blocked on I/O or
// preempted by other threads.
double ThreadCpuSeconds() {
  timespec ts;
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- Sharded discovery: the full single-process streamed pipeline ------
// (generate + quantize + peel) vs a W-worker fleet over the same synthetic
// stream. Workers run in-process over socketpairs, but each generates,
// sketches and codes only its 1/W block stride -- the mechanism the
// multi-process topology scales by -- while the coordinator folds their
// summaries and drives one round trip per applied peel. Exact-pack data
// (distinct values under the bin cap), so the fleet's boxes must match the
// single-process run bit for bit.
//
// Timing is the thread-CPU critical path, not wall clock: the fleet side
// reports max(worker CPU) + coordinator CPU. In the real topology the
// workers are independent processes on their own cores, so the critical
// path IS the wall time of an unloaded >=W-core host -- while wall clock
// measured here would only report how many cores this particular machine
// (often a 1-2 core CI container) happens to have. CPU clocks exclude
// blocked time, so the coordinator's waits on worker replies don't
// double-count the work it is waiting for.
KernelResult BenchShardScaling(const PerfFlags& flags) {
  KernelResult result;
  result.name = "shard_scaling";
  const int workers = std::max(2, flags.threads);
  shard::SourceSpec spec;
  spec.kind = shard::SourceSpec::Kind::kSynthetic;
  spec.block_rows = 8192;
  spec.rows = flags.quick ? 200000 : 10000000;  // the L=10M target shape
  spec.dims = flags.dims;
  spec.distinct = 48;
  spec.seed = flags.seed;
  result.detail = "L=" + std::to_string(spec.rows) +
                  " d=" + std::to_string(spec.dims) +
                  " workers=" + std::to_string(workers) + " critical-path";
  StreamedBuildOptions build_options;
  build_options.block_rows = spec.block_rows;
  PrimConfig config;
  config.alpha = 0.05;
  config.min_points = 20;

  PrimResult ref, opt;
  result.reference_seconds = 1e300;
  for (int rep = 0; rep < flags.reps; ++rep) {
    const double cpu0 = ThreadCpuSeconds();
    shard::SyntheticBlockSource source(spec, 1, 0);
    const Result<StreamedDataset> data =
        BinnedIndex::BuildStreamed(&source, build_options);
    if (!data.ok()) {
      std::fprintf(stderr, "shard_scaling reference: %s\n",
                   data.status().ToString().c_str());
      std::exit(1);
    }
    ref = RunPrimStreamed(*data->index, data->y, config);
    result.reference_seconds =
        std::min(result.reference_seconds, ThreadCpuSeconds() - cpu0);
  }

  result.optimized_seconds = 1e300;
  for (int rep = 0; rep < flags.reps; ++rep) {
    std::vector<int> coordinator_fds, worker_fds;
    for (int w = 0; w < workers; ++w) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        std::perror("socketpair");
        std::exit(1);
      }
      coordinator_fds.push_back(sv[0]);
      worker_fds.push_back(sv[1]);
    }
    std::vector<std::thread> threads;
    std::vector<Status> statuses(static_cast<size_t>(workers));
    std::vector<double> worker_cpu(static_cast<size_t>(workers), 0.0);
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        shard::SyntheticBlockSource source(spec, workers, w);
        statuses[static_cast<size_t>(w)] =
            shard::RunShardWorker(worker_fds[static_cast<size_t>(w)],
                                  &source);
        worker_cpu[static_cast<size_t>(w)] = ThreadCpuSeconds();
      });
    }
    const double coordinator_cpu0 = ThreadCpuSeconds();
    shard::ShardCoordinator coordinator(coordinator_fds, build_options);
    Status s = coordinator.BuildGlobalBins();
    if (s.ok()) {
      Result<PrimResult> r = coordinator.RunPrim(config);
      if (r.ok()) {
        opt = *std::move(r);
      } else {
        s = r.status();
      }
    }
    coordinator.Shutdown();
    const double coordinator_cpu = ThreadCpuSeconds() - coordinator_cpu0;
    for (std::thread& t : threads) t.join();
    for (int fd : coordinator_fds) ::close(fd);
    for (int fd : worker_fds) ::close(fd);
    for (const Status& ws : statuses) {
      if (!ws.ok()) s = ws;
    }
    if (!s.ok()) {
      std::fprintf(stderr, "shard_scaling fleet: %s\n",
                   s.ToString().c_str());
      result.identical = false;
    }
    const double slowest_worker =
        *std::max_element(worker_cpu.begin(), worker_cpu.end());
    result.optimized_seconds = std::min(result.optimized_seconds,
                                        slowest_worker + coordinator_cpu);
  }
  result.identical = result.identical && SamePrimResult(ref, opt);
  return result;
}

}  // namespace
}  // namespace reds

int main(int argc, char** argv) {
  using namespace reds;
  const PerfFlags flags = ParseFlags(argc, argv);

  std::vector<KernelResult> results;
  std::printf("== bench_perf_kernels (%s mode) ==\n",
              flags.quick ? "quick" : "full");
  auto run = [&](KernelResult r) {
    std::printf("%-26s %-36s ref %8.3fs  opt %8.3fs  speedup %6.2fx  %s\n",
                r.name.c_str(), r.detail.c_str(), r.reference_seconds,
                r.optimized_seconds, r.Speedup(),
                r.approximate
                    ? (r.Ok() ? "quality ok" : "QUALITY MISMATCH")
                    : (r.identical ? "identical" : "MISMATCH"));
    std::fflush(stdout);
    results.push_back(std::move(r));
  };

  // Each kernel is wrapped in a thunk so --only can skip the (expensive)
  // setup of filtered-out kernels entirely, not just their report lines.
  auto maybe = [&](const char* name, auto make) {
    if (!flags.only.empty() &&
        std::string(name).find(flags.only) == std::string::npos) {
      return;
    }
    run(make());
  };
  maybe("prim_peel", [&] { return BenchPrimPeel(flags, /*paste=*/false); });
  maybe("prim_paste", [&] { return BenchPrimPeel(flags, /*paste=*/true); });
  maybe("prim_peel_binned", [&] { return BenchPrimBinned(flags); });
  maybe("gbt_fit", [&] { return BenchGbtFit(flags); });
  maybe("gbt_fit_hist", [&] { return BenchGbtHist(flags); });
  maybe("rf_fit", [&] { return BenchRfFit(flags); });
  maybe("rf_fit_hist", [&] { return BenchRfHist(flags); });
  maybe("metamodel_predict_block_f", [&] {
    return BenchPredictBlock(flags, ml::MetamodelKind::kRandomForest);
  });
  maybe("metamodel_predict_block_x",
        [&] { return BenchPredictBlock(flags, ml::MetamodelKind::kGbt); });
  maybe("metamodel_predict_block_s",
        [&] { return BenchPredictBlock(flags, ml::MetamodelKind::kSvm); });
  maybe("bi_search", [&] { return BenchBi(flags); });
  maybe("hist_accumulate", [&] { return BenchHistAccumulate(flags); });
  maybe("hist_accumulate_q16", [&] { return BenchHistAccumulateQ16(flags); });
  maybe("binned_build_streamed", [&] { return BenchStreamedBuild(flags); });
  maybe("binned_build_streamed_parallel",
        [&] { return BenchStreamedBuildIdleCores(flags); });
  maybe("prim_peel_streamed", [&] { return BenchPrimStreamed(flags); });
  maybe("reds_relabel_streamed",
        [&] { return BenchRedsRelabelStreamed(flags); });
  maybe("method_reds_streamed_e2e",
        [&] { return BenchMethodRedsStreamed(flags); });
  maybe("metrics_overhead", [&] { return BenchMetricsOverhead(flags); });
  maybe("tuning_streamed_folds",
        [&] { return BenchTuningStreamedFolds(flags); });
  maybe("tune_and_fit_f", [&] {
    return BenchTuneAndFitIdleCores(flags, ml::MetamodelKind::kRandomForest);
  });
  maybe("tune_and_fit_x", [&] {
    return BenchTuneAndFitIdleCores(flags, ml::MetamodelKind::kGbt);
  });
  maybe("plan_pbc", [&] { return BenchPlanPbcIdleCores(flags); });
  maybe("bumping_q20", [&] { return BenchBumping(flags); });
  maybe("gbt_leafwise", [&] { return BenchGbtLeafwise(flags); });
  maybe("engine_coalesced_batch",
        [&] { return BenchEngineCoalescedBatch(flags); });
  maybe("shard_scaling", [&] { return BenchShardScaling(flags); });
  maybe("net_warm_roundtrip", [&] { return BenchNetWarmRoundtrip(flags); });
  maybe("net_saturation_throughput",
        [&] { return BenchNetSaturationThroughput(flags); });

  bool all_ok = true;
  for (const auto& r : results) all_ok = all_ok && r.Ok();

  if (!flags.metrics_out.empty()) {
    // The run as a MetricsRegistry dump: per-kernel latency histograms plus
    // pass/fail counters, in the same JSON shape DiscoveryEngine::
    // DumpMetrics emits -- one parser serves both.
    obs::MetricsRegistry registry;
    for (const auto& r : results) {
      registry.histogram("bench." + r.name + ".reference_ns")
          ->Observe(static_cast<uint64_t>(r.reference_seconds * 1e9));
      registry.histogram("bench." + r.name + ".optimized_ns")
          ->Observe(static_cast<uint64_t>(r.optimized_seconds * 1e9));
      registry.counter("bench.kernels.total")->Add(1);
      if (r.Ok()) registry.counter("bench.kernels.ok")->Add(1);
    }
    std::FILE* f = std::fopen(flags.metrics_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", flags.metrics_out.c_str());
      return 1;
    }
    const std::string json = registry.ToJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", flags.metrics_out.c_str());
  }

  if (!flags.out.empty()) {
    std::FILE* f = std::fopen(flags.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", flags.out.c_str());
      return 1;
    }
    WriteJson(flags, results, f);
    std::fclose(f);
    std::printf("wrote %s\n", flags.out.c_str());
  } else {
    WriteJson(flags, results, stdout);
  }
  if (!all_ok) {
    std::fprintf(stderr, "ERROR: a kernel diverged from its reference\n");
    return 1;
  }
  if (!flags.check_against.empty() &&
      !CheckAgainstReference(flags, results)) {
    std::fprintf(stderr, "ERROR: smoke timings regressed past tolerance\n");
    return 1;
  }
  return 0;
}
