// Shared plumbing of the end-to-end benchmark: command line, clocks, the
// percentile rule, registry deltas, and the result record every workload
// fills in and main() prints.
#ifndef E2EBENCH_COMMON_H_
#define E2EBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the first call in this process.
int64_t NowNs();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where span dumps go (relative to the working directory).
  std::string out_dir = ".bench_build/e2e-out";
};

/// Parses --workload/--seed/--seconds/--trace[/--out-dir]; throws
/// std::invalid_argument on anything else.
Args ParseArgs(int argc, char** argv);

/// A reported percentile: the value, the percentile actually used, and
/// the sample count it was taken over.
struct Percentile {
  double value = 0.0;
  double q = 0.0;
  size_t n = 0;
};

/// Nearest-rank percentile (rank ceil(q * n), at least 1). n == 0 gives a
/// zero Percentile.
Percentile NearestRank(std::vector<double> values, double q);

/// The tail rule: the nearest-rank percentile min(q, the highest
/// percentile with at least ten samples beyond it). When even the median
/// has fewer than ten samples beyond it, the median is reported.
Percentile TailPercentile(std::vector<double> values, double q);

double Mean(const std::vector<double>& values);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Sample count / percentile / base, printed on the human-readable line.
  std::string note;
};

/// What one workload run produced.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // correctness failures; empty = correct
  std::vector<Metric> metrics;      // end-to-end (untraced) or per-layer
  /// Printed for the reader but not part of the JSON metrics object.
  std::vector<Metric> extra;

  void Add(std::string name, double value, std::string unit,
           std::string note = "");
  void AddExtra(std::string name, double value, std::string unit,
                std::string note = "");
  void Check(bool ok, const std::string& what);
};

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

int HardwareThreads();

/// after - before, counter- and bucket-wise (histogram min is dropped,
/// max kept from `after`), so quantiles cover only the interval between
/// the two snapshots.
reds::obs::RegistrySnapshot Delta(const reds::obs::RegistrySnapshot& after,
                                  const reds::obs::RegistrySnapshot& before);

uint64_t CounterOf(const reds::obs::RegistrySnapshot& s,
                   const std::string& name);
/// Quantile of a nanosecond histogram, in milliseconds; 0 when absent.
double HistQuantileMs(const reds::obs::RegistrySnapshot& s,
                      const std::string& name, double q);
uint64_t HistCount(const reds::obs::RegistrySnapshot& s,
                   const std::string& name);
/// Sum of a histogram's observations; 0 when absent.
uint64_t HistSum(const reds::obs::RegistrySnapshot& s, const std::string& name);

/// hits / lookups, 0 when there were no lookups.
double Ratio(double hits, double lookups);

/// "k/n" note text for a ratio's base.
std::string BaseNote(uint64_t hits, uint64_t lookups);

/// "n=<n> p<q>" note text for a percentile.
std::string PercentileNote(const Percentile& p);

/// The engine layer's per-layer metrics from a registry delta: pool queue
/// wait and job latency quantiles, each cache tier's hit ratio with its
/// hits and lookups, and the coalesced-follower count.
void AddEngineLayerMetrics(const reds::obs::RegistrySnapshot& delta,
                           Outcome* out);

/// Reads one numeric field `"name": <number>` out of a registry JSON dump;
/// false when the name is absent.
bool JsonNumber(const std::string& json, const std::string& name,
                double* value);

}  // namespace e2e

#endif  // E2EBENCH_COMMON_H_
