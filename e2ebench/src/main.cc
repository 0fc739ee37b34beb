// reds_e2e: one run of one workload of the end-to-end benchmark.
//
//   reds_e2e --workload paper_batch|paper_slice|serve_mixed --seed N
//            --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints one human-readable line per metric (name, value, unit, sample
// count), then, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exits non-zero when a correctness check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace e2e {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, reported by every workload.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"jobs_per_s", "jobs/s"},
    {"latency_p50_ms", "ms"},   {"latency_p90_ms", "ms"},
    {"latency_p99_ms", "ms"},   {"max_rate_rps", "req/s"},
    {"goodput_rps", "req/s"},   {"pr_auc", "%"},
    {"precision", "%"},         {"peak_rss_mb", "MB"},
};

// Every per-layer metric. A workload that does not exercise a layer
// reports 0 for it (e.g. net.* on the in-process paper workloads).
const MetricDef kPerLayer[] = {
    {"reds.relabel_s", "s"},
    {"reds.ns_per_row.f", "ns"},
    {"reds.ns_per_row.x", "ns"},
    {"reds.ns_per_row.s", "ns"},
    {"binned_index.build_self_s", "s"},
    {"binned_index.ns_per_value", "ns"},
    {"ml.fit_s", "s"},
    {"ml.tune_s", "s"},
    {"ml.fits", "count"},
    {"method.plan_s", "s"},
    {"method.plans", "count"},
    {"bumping.s", "s"},
    {"bumping.replicates", "count"},
    {"best_interval.s", "s"},
    {"prim.peel_s", "s"},
    {"prim.boxes", "count"},
    {"quality.validate_s", "s"},
    {"functions.simulate_s", "s"},
    {"engine.queue_wait_p50_ms", "ms"},
    {"engine.queue_wait_p99_ms", "ms"},
    {"engine.job_p50_ms", "ms"},
    {"engine.job_p99_ms", "ms"},
    {"engine.metamodel_hit_ratio", "ratio"},
    {"engine.metamodel_hits", "count"},
    {"engine.metamodel_lookups", "count"},
    {"engine.relabel_hit_ratio", "ratio"},
    {"engine.relabel_hits", "count"},
    {"engine.relabel_lookups", "count"},
    {"engine.index_hit_ratio", "ratio"},
    {"engine.index_hits", "count"},
    {"engine.index_lookups", "count"},
    {"engine.coalesced", "count"},
    {"net.admit_p50_ms", "ms"},
    {"net.admit_p99_ms", "ms"},
    {"net.server_p50_ms", "ms"},
    {"net.server_p99_ms", "ms"},
    {"net.wire_p50_ms", "ms"},
    {"net.result_cache_hit_ratio", "ratio"},
    {"net.result_cache_hits", "count"},
    {"net.result_cache_lookups", "count"},
    {"net.shed", "count"},
    {"net.coalesced_exempt", "count"},
    {"serve.replay.p50_ms", "ms"},
    {"serve.replay.p99_ms", "ms"},
    {"serve.replay.share", "ratio"},
    {"serve.peel.p50_ms", "ms"},
    {"serve.peel.p99_ms", "ms"},
    {"serve.peel.share", "ratio"},
    {"serve.relabel.p50_ms", "ms"},
    {"serve.relabel.p99_ms", "ms"},
    {"serve.relabel.share", "ratio"},
    {"serve.cold.p50_ms", "ms"},
    {"serve.cold.p99_ms", "ms"},
    {"serve.cold.share", "ratio"},
    {"serve.burst.p50_ms", "ms"},
    {"serve.burst.p99_ms", "ms"},
    {"serve.burst.share", "ratio"},
    {"loadgen.late_p99_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"trace.unattributed_frac", "ratio"},
    {"run.failed_frac", "ratio"},
    {"run.shed_frac", "ratio"},
};

void PrintLine(const Metric& m, const char* tag) {
  std::printf("%-8s %-30s %16.6f %-7s %s\n", tag, m.name.c_str(), m.value,
              m.unit.c_str(), m.note.c_str());
}

int Run(int argc, char** argv) {
  Args args;
  try {
    args = ParseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reds_e2e: %s\n", e.what());
    return 2;
  }
  // The benchmark measures real fits and unwritten traces: no disk cache
  // tier and no engine trace files, whatever the environment says.
  ::unsetenv("REDS_CACHE_DIR");
  ::unsetenv("REDS_TRACE_DIR");

  Outcome out;
  try {
    if (args.workload == "paper_batch") {
      out = RunPaperBatch(args);
    } else if (args.workload == "paper_slice") {
      out = RunPaperSlice(args);
    } else if (args.workload == "serve_mixed") {
      out = RunServeMixed(args);
    } else {
      std::fprintf(stderr, "reds_e2e: unknown workload %s\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reds_e2e: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  std::map<std::string, Metric> by_name;
  for (const Metric& m : out.metrics) {
    if (!by_name.emplace(m.name, m).second) {
      out.Check(false, "metric reported twice: " + m.name);
    }
  }
  std::vector<Metric> report;
  std::set<std::string> known;
  const auto emit = [&](const MetricDef* defs, size_t n, bool required) {
    for (size_t i = 0; i < n; ++i) {
      known.insert(defs[i].name);
      auto it = by_name.find(defs[i].name);
      Metric m{defs[i].name, 0.0, defs[i].unit, "not exercised"};
      if (it != by_name.end()) {
        m = it->second;
      } else if (required) {
        out.Check(false, std::string("metric not reported: ") + defs[i].name);
      }
      out.Check(m.unit == defs[i].unit,
                "unit mismatch for " + m.name + ": " + m.unit);
      out.Check(std::isfinite(m.value), "non-finite value for " + m.name);
      report.push_back(m);
    }
  };
  if (args.trace) {
    emit(kPerLayer, sizeof(kPerLayer) / sizeof(kPerLayer[0]), false);
  } else {
    emit(kEndToEnd, sizeof(kEndToEnd) / sizeof(kEndToEnd[0]), true);
  }
  for (const Metric& m : out.metrics) {
    if (known.count(m.name) == 0) out.Check(false, "unlisted metric " + m.name);
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const Metric& m : report) PrintLine(m, "metric");
  for (const Metric& m : out.extra) PrintLine(m, "info");
  for (const std::string& e : out.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = out.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  for (size_t i = 0; i < report.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", report[i].name.c_str(),
                std::isfinite(report[i].value) ? report[i].value : 0.0,
                report[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Run(argc, argv); }
