#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

namespace e2e {

int64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload missing");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds <= 0");
  return args;
}

Percentile NearestRank(std::vector<double> values, double q) {
  Percentile p;
  p.n = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::max(1.0, std::ceil(q * n)));
  rank = std::min(rank, values.size());
  p.value = values[rank - 1];
  p.q = static_cast<double>(rank) / n;
  return p;
}

Percentile TailPercentile(std::vector<double> values, double q) {
  const size_t n = values.size();
  if (n == 0) return Percentile{};
  // Rank k leaves n - k samples beyond it; the rule needs n - k >= 10.
  const size_t median_rank =
      static_cast<size_t>(std::ceil(0.5 * static_cast<double>(n)));
  const size_t wanted = static_cast<size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n))));
  size_t rank = n > 10 ? std::min(wanted, n - 10) : 0;
  if (rank < median_rank) rank = std::min(wanted, median_rank);
  std::sort(values.begin(), values.end());
  Percentile p;
  p.n = n;
  p.value = values[rank - 1];
  p.q = static_cast<double>(rank) / static_cast<double>(n);
  return p;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void Outcome::Add(std::string name, double value, std::string unit,
                  std::string note) {
  metrics.push_back(
      Metric{std::move(name), value, std::move(unit), std::move(note)});
}

void Outcome::AddExtra(std::string name, double value, std::string unit,
                       std::string note) {
  extra.push_back(
      Metric{std::move(name), value, std::move(unit), std::move(note)});
}

void Outcome::Check(bool ok, const std::string& what) {
  if (!ok) errors.push_back(what);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

reds::obs::RegistrySnapshot Delta(const reds::obs::RegistrySnapshot& after,
                                  const reds::obs::RegistrySnapshot& before) {
  reds::obs::RegistrySnapshot out = after;
  for (auto& [name, value] : out.counters) {
    auto it = before.counters.find(name);
    if (it != before.counters.end()) value -= std::min(value, it->second);
  }
  for (auto& [name, hist] : out.histograms) {
    auto it = before.histograms.find(name);
    if (it == before.histograms.end()) continue;
    const reds::obs::HistogramSnapshot& b = it->second;
    hist.count -= std::min(hist.count, b.count);
    hist.sum -= std::min(hist.sum, b.sum);
    for (size_t i = 0; i < hist.buckets.size() && i < b.buckets.size(); ++i) {
      hist.buckets[i] -= std::min(hist.buckets[i], b.buckets[i]);
    }
    hist.min = 0;
  }
  return out;
}

uint64_t CounterOf(const reds::obs::RegistrySnapshot& s,
                   const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double HistQuantileMs(const reds::obs::RegistrySnapshot& s,
                      const std::string& name, double q) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.Quantile(q) / 1e6;
}

uint64_t HistCount(const reds::obs::RegistrySnapshot& s,
                   const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : it->second.count;
}

uint64_t HistSum(const reds::obs::RegistrySnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : it->second.sum;
}

double Ratio(double hits, double lookups) {
  return lookups > 0.0 ? hits / lookups : 0.0;
}

std::string BaseNote(uint64_t hits, uint64_t lookups) {
  return std::to_string(hits) + "/" + std::to_string(lookups);
}

std::string PercentileNote(const Percentile& p) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "n=%zu p%.1f", p.n, 100.0 * p.q);
  return buf;
}

bool JsonNumber(const std::string& json, const std::string& name,
                double* value) {
  const std::string key = "\"" + name + "\":";
  const size_t at = json.find(key);
  if (at == std::string::npos) return false;
  const char* begin = json.c_str() + at + key.size();
  char* end = nullptr;
  *value = std::strtod(begin, &end);
  return end != begin;
}

void AddEngineLayerMetrics(const reds::obs::RegistrySnapshot& d,
                           Outcome* out) {
  const uint64_t task_waits = HistCount(d, "engine.pool.task_wait_ns");
  const uint64_t jobs = HistCount(d, "engine.job.latency_ns");
  out->Add("engine.queue_wait_p50_ms",
           HistQuantileMs(d, "engine.pool.task_wait_ns", 0.50), "ms",
           "n=" + std::to_string(task_waits));
  out->Add("engine.queue_wait_p99_ms",
           HistQuantileMs(d, "engine.pool.task_wait_ns", 0.99), "ms",
           "n=" + std::to_string(task_waits));
  out->Add("engine.job_p50_ms", HistQuantileMs(d, "engine.job.latency_ns", 0.5),
           "ms", "n=" + std::to_string(jobs));
  out->Add("engine.job_p99_ms",
           HistQuantileMs(d, "engine.job.latency_ns", 0.99), "ms",
           "n=" + std::to_string(jobs));
  const auto ratio = [&](const std::string& base, uint64_t hits,
                         uint64_t lookups) {
    out->Add("engine." + base + "_hit_ratio",
             Ratio(static_cast<double>(hits), static_cast<double>(lookups)),
             "ratio", BaseNote(hits, lookups));
    out->Add("engine." + base + "_hits", static_cast<double>(hits), "count");
    out->Add("engine." + base + "_lookups", static_cast<double>(lookups),
             "count");
  };
  const uint64_t mm_hits = CounterOf(d, "cache.metamodel.hits");
  ratio("metamodel", mm_hits, mm_hits + CounterOf(d, "cache.metamodel.fits"));
  const uint64_t rl_hits = CounterOf(d, "cache.relabel.hits");
  ratio("relabel", rl_hits, rl_hits + CounterOf(d, "cache.relabel.misses"));
  uint64_t ix_hits = 0;
  uint64_t ix_lookups = 0;
  for (const char* tier : {"column", "binned", "streamed"}) {
    const std::string prefix = std::string("cache.index.") + tier;
    const uint64_t h = CounterOf(d, prefix + ".hits");
    ix_hits += h;
    ix_lookups += h + CounterOf(d, prefix + ".misses");
  }
  ratio("index", ix_hits, ix_lookups);
  out->Add("engine.coalesced",
           static_cast<double>(CounterOf(d, "engine.jobs.coalesced")), "count");
}

}  // namespace e2e
