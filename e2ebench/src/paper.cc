// paper_batch and paper_slice: the paper's own experiment jobs sent through
// one DiscoveryEngine, timed from outside, plus the traced replay that
// re-runs each job's stages through the layers' public entry points.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/best_interval.h"
#include "core/binned_index.h"
#include "core/box.h"
#include "core/bumping.h"
#include "core/dataset_source.h"
#include "core/method.h"
#include "core/prim.h"
#include "core/quality.h"
#include "core/reds.h"
#include "engine/discovery_engine.h"
#include "functions/datagen.h"
#include "functions/registry.h"
#include "ml/tuning.h"
#include "sampling/design.h"
#include "spans.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace e2e {
namespace {

using reds::Box;
using reds::Dataset;
using reds::DeriveSeed;
using reds::MethodSpec;
using reds::RunOptions;
namespace engine = reds::engine;
namespace fun = reds::fun;
namespace ml = reds::ml;

// setup_s is the median of kTimedSetups set-ups made after the measured
// phase of an untraced run, in a warmed process. Set-ups in the fresh
// process before the phase were often slower (by 15-40% in instrumented
// runs), and a median over both groups jumped between them from run to
// run. The one set-up before the phase is printed on its own as
// setup_first_s. Paper set-ups take 0.03-0.2 s.
constexpr int kTimedSetups = 12;
constexpr uint64_t kEngineSeed = 42;

// Work per run is a whole number of units, round(seconds / unit seconds),
// so every run of a workload measures the same job mix. The unit lengths
// are the measured-phase seconds one unit takes on a 4-core x86 box.
constexpr double kBatchRoundSeconds = 4.5;
constexpr double kSliceSeedSeconds = 5.0;

// The quick subset of bench_flags' PickFunctions and the two tables'
// method columns.
const std::vector<std::string> kQuickFunctions = {
    "dalal3", "borehole", "ellipse",    "ishigami",
    "morris", "sobol",    "moon10hdc1", "dsgc"};
const std::vector<std::string> kTable3Methods = {"P",   "Pc",  "PB", "PBc",
                                                 "RPf", "RPx", "RPs"};
const std::vector<std::string> kTable4Methods = {"BI", "BIc", "BI5", "RBIcfp",
                                                 "RBIcxp"};
const std::vector<std::string> kSliceMethods = {"P",   "Pc",  "PBc",
                                                "RPf", "RPx", "RPs"};

struct FunctionCtx {
  std::unique_ptr<fun::TestFunction> fn;
  fun::DesignKind design = fun::DesignKind::kLatinHypercube;
  uint64_t test_seed = 0;
  std::shared_ptr<const Dataset> test;
  std::shared_ptr<const std::vector<bool>> relevant;
};

/// One job: enough to submit it to the engine and to replay it.
struct JobSpec {
  uint64_t id = 0;
  int function = 0;
  std::string method;
  int n = 0;
  uint64_t data_seed = 0;
  RunOptions options;  // engine hooks unset
};

struct JobResult {
  int64_t submit_ns = 0;
  int64_t finish_ns = -1;
  bool done = false;
  std::string error;
  engine::MetricSet metrics;
  size_t trajectory = 0;
  Box last_box;
};

struct PaperState {
  std::vector<FunctionCtx> contexts;
  std::unique_ptr<engine::DiscoveryEngine> engine;
};

struct PaperConfig {
  std::vector<std::string> functions;
  int test_size = 8000;
  int threads = 1;
};

// A Halton training set is the stretch of the sequence that starts at a
// random leap in [20, 100020) (fun::MakeDesign); the benchmark's training
// sets have at most 400 rows. A Halton test set drawn the same way often
// overlaps some training set of a run (about 8% per training set for 8000
// test rows), so it starts past every stretch a training set can use.
// CheckIndependentTestSets guards this.
constexpr int kHaltonTestSkip = 100020 + 400;

/// Test data from the function's design distribution, sharing no point
/// with any training set.
Dataset MakeTestSet(const fun::TestFunction& fn, int n, fun::DesignKind design,
                    uint64_t seed) {
  if (design != fun::DesignKind::kHalton) {
    return fun::MakeScenarioDataset(fn, n, design, seed);
  }
  return fun::LabelDesign(
      fn, reds::sampling::HaltonDesign(n, fn.dim(), kHaltonTestSkip), seed);
}

PaperState SetUp(const PaperConfig& config, uint64_t seed) {
  PaperState state;
  state.contexts.resize(config.functions.size());
  for (size_t fi = 0; fi < config.functions.size(); ++fi) {
    auto fn = fun::MakeFunction(config.functions[fi]);
    if (!fn.ok()) {
      throw std::invalid_argument("unknown function " + config.functions[fi]);
    }
    FunctionCtx& ctx = state.contexts[fi];
    ctx.fn = std::move(*fn);
    ctx.design = fun::DefaultDesignFor(*ctx.fn);
    ctx.relevant =
        std::make_shared<const std::vector<bool>>(ctx.fn->relevant());
  }
  {
    reds::ThreadPool pool(config.threads);
    for (size_t fi = 0; fi < state.contexts.size(); ++fi) {
      pool.Submit([&state, &config, seed, fi] {
        FunctionCtx& ctx = state.contexts[fi];
        ctx.test_seed = DeriveSeed(seed, 0x7e57ULL ^ (fi + 1));
        ctx.test = std::make_shared<const Dataset>(
            MakeTestSet(*ctx.fn, config.test_size, ctx.design, ctx.test_seed));
      });
    }
    pool.Wait();
  }
  engine::EngineConfig ec;
  ec.threads = config.threads;
  ec.seed = kEngineSeed;
  ec.enable_persistent_cache = false;
  state.engine = std::make_unique<engine::DiscoveryEngine>(ec);
  return state;
}

/// Seconds of `count` set-ups, one after another; none is kept.
std::vector<double> TimeSetUps(const PaperConfig& config, uint64_t seed,
                               int count) {
  std::vector<double> times;
  for (int i = 0; i < count; ++i) {
    const int64_t t0 = NowNs();
    PaperState state = SetUp(config, seed);
    times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return times;
}

engine::DiscoveryRequest MakeRequest(const FunctionCtx& ctx,
                                     const JobSpec& job) {
  engine::DiscoveryRequest req;
  const fun::TestFunction* fn = ctx.fn.get();
  const fun::DesignKind design = ctx.design;
  const int n = job.n;
  const uint64_t data_seed = job.data_seed;
  req.make_train = [fn, n, design, data_seed] {
    return fun::MakeScenarioDataset(*fn, n, design, data_seed);
  };
  req.method = job.method;
  req.options = job.options;
  req.test = ctx.test;
  req.relevant = ctx.relevant;
  req.cell = fn->name() + "|" + job.method + "|" + std::to_string(n);
  req.keep_output = true;
  return req;
}

/// Submits `jobs` in order keeping at most `window` outstanding; job
/// latency runs from Submit to the engine's completion callback.
std::vector<JobResult> RunClosedLoop(engine::DiscoveryEngine* eng,
                                     const std::vector<FunctionCtx>& contexts,
                                     const std::vector<JobSpec>& jobs,
                                     int window) {
  std::vector<JobResult> results(jobs.size());
  std::vector<engine::JobHandle> handles(jobs.size());
  std::mutex mutex;
  std::condition_variable cv;
  int outstanding = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return outstanding < window; });
      ++outstanding;
    }
    engine::DiscoveryRequest req =
        MakeRequest(contexts[static_cast<size_t>(jobs[i].function)], jobs[i]);
    results[i].submit_ns = NowNs();
    handles[i] = eng->Submit(std::move(req));
    handles[i]->NotifyOnFinish([&, i] {
      const int64_t t = NowNs();
      std::lock_guard<std::mutex> lock(mutex);
      results[i].finish_ns = t;
      --outstanding;
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return outstanding == 0; });
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    const engine::JobHandle& h = handles[i];
    JobResult& r = results[i];
    if (h->state() == engine::JobState::kDone) {
      r.done = true;
      r.metrics = h->metrics();
      r.trajectory = h->output().trajectory.size();
      r.last_box = h->output().last_box;
    } else {
      r.error = h->error();
    }
  }
  return results;
}

RunOptions BaseOptions(const FunctionCtx& ctx, uint64_t data_seed,
                       size_t method_index) {
  RunOptions o;
  o.sampler = fun::SamplerFor(ctx.design);
  o.seed = DeriveSeed(data_seed, 0x6d ^ (method_index + 1));
  return o;
}

/// Deterministic Fisher-Yates shuffle on the library's own generator.
template <typename T>
void SeededShuffle(std::vector<T>* v, uint64_t seed) {
  reds::Rng rng(seed);
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.UniformInt(i)]);
  }
}

std::vector<JobSpec> BatchJobs(const std::vector<FunctionCtx>& contexts,
                               uint64_t seed, int rounds) {
  std::vector<JobSpec> jobs;
  for (int r = 0; r < rounds; ++r) {
    std::vector<JobSpec> round;
    for (size_t fi = 0; fi < contexts.size(); ++fi) {
      for (int n : {200, 400}) {
        // One training set per (function, N, round): every method sees
        // the same data, as in the Runner.
        const uint64_t data_seed =
            DeriveSeed(seed, (fi + 1) * 1000003ULL +
                                 static_cast<uint64_t>(n) * 131ULL +
                                 static_cast<uint64_t>(r) * 7919ULL);
        for (size_t mi = 0; mi < kTable3Methods.size(); ++mi) {
          JobSpec job;
          job.function = static_cast<int>(fi);
          job.method = kTable3Methods[mi];
          job.n = n;
          job.data_seed = data_seed;
          job.options = BaseOptions(contexts[fi], data_seed, mi);
          job.options.l_prim = 20000;
          job.options.bumping_q = 20;
          job.options.tune_metamodel = false;
          round.push_back(job);
        }
        for (size_t mi = 0; mi < kTable4Methods.size(); ++mi) {
          JobSpec job;
          job.function = static_cast<int>(fi);
          job.method = kTable4Methods[mi];
          job.n = n;
          job.data_seed = data_seed;
          job.options = BaseOptions(contexts[fi], data_seed, 100 + mi);
          job.options.l_bi = 5000;
          job.options.tune_metamodel = false;
          round.push_back(job);
        }
      }
    }
    SeededShuffle(&round, DeriveSeed(seed, 0xb47cULL + static_cast<uint64_t>(r)));
    jobs.insert(jobs.end(), round.begin(), round.end());
  }
  for (size_t i = 0; i < jobs.size(); ++i) jobs[i].id = i + 1;
  return jobs;
}

std::vector<JobSpec> SliceJobs(const std::vector<FunctionCtx>& contexts,
                               uint64_t seed, int seeds) {
  std::vector<JobSpec> jobs;
  for (int s = 0; s < seeds; ++s) {
    const uint64_t data_seed =
        DeriveSeed(seed, 0x511ceULL + static_cast<uint64_t>(s));
    for (size_t mi = 0; mi < kSliceMethods.size(); ++mi) {
      JobSpec job;
      job.function = 0;
      job.method = kSliceMethods[mi];
      job.n = 400;
      job.data_seed = data_seed;
      // RunOptions defaults are the paper's: L = 100k and tuned metamodels
      // on the quick CV budget; bumping runs the quick tables' Q = 20.
      job.options = BaseOptions(contexts[0], data_seed, mi);
      job.options.bumping_q = 20;
      jobs.push_back(job);
    }
  }
  for (size_t i = 0; i < jobs.size(); ++i) jobs[i].id = i + 1;
  return jobs;
}

// ---------------------------------------------------------------------------
// Traced replay.
// ---------------------------------------------------------------------------

/// Times every NextBlock pull (sampling + metamodel labeling of one block
/// of relabeled points) as a reds.next_block span.
class TimingSource : public reds::DatasetSource {
 public:
  TimingSource(reds::DatasetSource* inner, SpanRecorder* recorder,
               uint64_t job)
      : inner_(inner), recorder_(recorder), job_(job) {}
  int num_cols() const override { return inner_->num_cols(); }
  int64_t num_rows_hint() const override { return inner_->num_rows_hint(); }
  reds::Status Reset() override { return inner_->Reset(); }
  reds::Result<reds::RowBlock> NextBlock(int max_rows) override {
    ScopedSpan span(recorder_, "reds.next_block", job_);
    return inner_->NextBlock(max_rows);
  }

 private:
  reds::DatasetSource* inner_;
  SpanRecorder* recorder_;
  uint64_t job_;
};

/// The replay's metamodel memo: one fit per (training set, recipe), like
/// the engine's cache, so replayed jobs fit exactly what the engine fit.
class ReplayModels {
 public:
  using Model = std::shared_ptr<const ml::Metamodel>;

  reds::MetamodelProvider Provider(uint64_t data_seed, SpanRecorder* recorder,
                                   uint64_t job) {
    return [this, data_seed, recorder, job](
               const Dataset& train, ml::MetamodelKind kind, bool tune,
               ml::TuningBudget budget, ml::SplitBackend backend,
               ml::GrowthPolicy growth, int max_leaves, uint64_t seed) {
      const auto key =
          std::make_tuple(data_seed, static_cast<int>(kind), tune,
                          static_cast<int>(budget), static_cast<int>(backend),
                          static_cast<int>(growth), max_leaves);
      std::promise<Model> promise;
      std::shared_future<Model> future;
      bool fit = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = models_.find(key);
        if (it == models_.end()) {
          future = promise.get_future().share();
          models_.emplace(key, future);
          fit = true;
        } else {
          future = it->second;
        }
      }
      if (!fit) {
        ScopedSpan span(recorder, "ml.cache_wait", job);
        return future.get();
      }
      ScopedSpan span(recorder, tune ? "ml.tune" : "ml.fit", job);
      try {
        Model model(ml::FitMetamodel(kind, train, seed, tune, budget, nullptr,
                                     nullptr, backend, growth, max_leaves));
        promise.set_value(model);
        return model;
      } catch (...) {
        promise.set_exception(std::current_exception());
        throw;
      }
    };
  }

 private:
  std::mutex mutex_;
  std::map<std::tuple<uint64_t, int, bool, int, int, int, int>,
           std::shared_future<Model>>
      models_;
};

/// Mirrors method.cc's RedsConfigFor: the REDS configuration of one run.
reds::RedsConfig RedsConfigFor(const MethodSpec& spec, const RunOptions& o) {
  reds::RedsConfig c;
  c.metamodel = spec.metamodel;
  c.tune_metamodel = o.tune_metamodel;
  c.budget = o.budget;
  c.probability_labels = spec.probability_labels;
  c.num_new_points =
      spec.family == MethodSpec::Family::kBi ? o.l_bi : o.l_prim;
  c.split_backend = o.split_backend;
  c.tree_growth = o.tree_growth;
  c.tree_max_leaves = o.tree_max_leaves;
  c.sampler = o.sampler;
  c.metamodel_provider = o.metamodel_provider;
  return c;
}

struct ReplayCounts {
  std::mutex mutex;
  int64_t plans = 0;
  int64_t prim_boxes = 0;
  int64_t replicates = 0;
  int64_t streamed_values = 0;  // L x M over streamed index builds
  std::map<ml::MetamodelKind, int64_t> relabeled_rows;
};

/// Replays one job's stages in ExecuteMethodPlan's order, each under its
/// own span, and returns the discovered last box.
Box ReplayJob(const FunctionCtx& ctx, const JobSpec& job,
              SpanRecorder* recorder, ReplayModels* models,
              ReplayCounts* counts) {
  ScopedSpan root(recorder, "job", job.id);
  Dataset train;
  {
    ScopedSpan span(recorder, "functions.simulate", job.id);
    train = fun::MakeScenarioDataset(*ctx.fn, job.n, ctx.design, job.data_seed);
  }
  const MethodSpec spec = MethodSpec::Parse(job.method).value();
  RunOptions options = job.options;
  options.metamodel_provider =
      models->Provider(job.data_seed, recorder, job.id);
  reds::MethodPlan plan;
  {
    ScopedSpan span(recorder, "method.plan", job.id);
    plan = reds::PlanMethod(spec, train, options);
  }
  std::vector<Box> trajectory;
  Box last_box;
  int64_t boxes = 0;
  int64_t replicates = 0;
  int64_t streamed_values = 0;
  const reds::RedsConfig rconfig = RedsConfigFor(spec, options);
  const uint64_t relabel_seed = DeriveSeed(options.seed, 23);
  reds::PrimConfig prim;
  prim.alpha = plan.alpha;
  prim.min_points = options.min_points;
  if (plan.streamed_relabel) {
    reds::RedsStreamedRelabeling relabeling;
    {
      ScopedSpan span(recorder, "reds.relabel", job.id);
      relabeling = reds::RedsRelabelStreamed(train, rconfig, relabel_seed);
    }
    TimingSource timed(relabeling.new_data.get(), recorder, job.id);
    reds::StreamedBuildOptions build;
    build.block_rows = options.stream_block_rows;
    reds::Result<reds::StreamedDataset> streamed = [&] {
      ScopedSpan span(recorder, "binned_index.build", job.id);
      return reds::BinnedIndex::BuildStreamed(&timed, build);
    }();
    if (!streamed.ok()) {
      throw std::runtime_error("replay BuildStreamed failed: " +
                               streamed.status().ToString());
    }
    streamed_values = static_cast<int64_t>(rconfig.num_new_points) *
                      static_cast<int64_t>(train.num_cols());
    ScopedSpan span(recorder, "prim.peel", job.id);
    const reds::PrimResult r =
        reds::RunPrimStreamed(*streamed->index, streamed->y, prim, &train);
    trajectory = r.ReturnedBoxes();
    last_box = r.BestBox();
    boxes = static_cast<int64_t>(trajectory.size());
  } else {
    Dataset relabeled;
    const Dataset* sd = &train;
    if (spec.reds) {
      ScopedSpan span(recorder, "reds.relabel", job.id);
      relabeled = reds::RedsRelabel(train, rconfig, relabel_seed).new_data;
      sd = &relabeled;
    }
    switch (spec.family) {
      case MethodSpec::Family::kPrim: {
        ScopedSpan span(recorder, "prim.peel", job.id);
        const reds::PrimResult r = reds::RunPrim(*sd, train, prim);
        trajectory = r.ReturnedBoxes();
        last_box = r.BestBox();
        boxes = static_cast<int64_t>(trajectory.size());
        break;
      }
      case MethodSpec::Family::kPrimBumping: {
        ScopedSpan span(recorder, "bumping", job.id);
        reds::BumpingConfig config;
        config.q = options.bumping_q;
        config.m = plan.m;
        config.prim = prim;
        const reds::BumpingResult r = reds::RunPrimBumping(
            *sd, train, config, DeriveSeed(options.seed, 29));
        trajectory = r.boxes;
        last_box = r.BestBox();
        replicates = config.q;
        break;
      }
      case MethodSpec::Family::kBi: {
        ScopedSpan span(recorder, "best_interval", job.id);
        reds::BiConfig config;
        config.beam_size = spec.beam_size;
        config.max_restricted = plan.m;
        const reds::BiResult r = reds::RunBi(*sd, config);
        trajectory = {r.box};
        last_box = r.box;
        break;
      }
    }
  }
  {
    ScopedSpan span(recorder, "quality.validate", job.id);
    reds::PrAucOnData(trajectory, *ctx.test);
    reds::ComputeBoxStats(*ctx.test, last_box);
  }
  std::lock_guard<std::mutex> lock(counts->mutex);
  ++counts->plans;
  counts->prim_boxes += boxes;
  counts->replicates += replicates;
  counts->streamed_values += streamed_values;
  if (spec.reds) counts->relabeled_rows[spec.metamodel] += rconfig.num_new_points;
  return last_box;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

struct Measured {
  std::vector<JobResult> results;
  double wall_s = 0.0;
  reds::obs::RegistrySnapshot registry;  // delta over the measured phase
};

Measured Measure(PaperState* state, const std::vector<JobSpec>& jobs,
                 int window) {
  Measured m;
  const reds::obs::RegistrySnapshot before =
      state->engine->metrics().TakeSnapshot();
  m.results = RunClosedLoop(state->engine.get(), state->contexts, jobs, window);
  int64_t first = m.results.empty() ? 0 : m.results.front().submit_ns;
  int64_t last = first;
  for (const JobResult& r : m.results) last = std::max(last, r.finish_ns);
  m.wall_s = static_cast<double>(last - first) / 1e9;
  // Read after the measured phase: costs the timed run nothing.
  m.registry = Delta(state->engine->metrics().TakeSnapshot(), before);
  return m;
}

/// Every job is scored on independent test data: no row of any training
/// set the run used appears among its function's test rows. The training
/// sets are regenerated from their seeds, as the engine's jobs made them.
void CheckIndependentTestSets(const std::vector<JobSpec>& jobs,
                              const std::vector<FunctionCtx>& contexts,
                              Outcome* out) {
  const auto row_hash = [](const Dataset& d, int r) {
    return std::hash<std::string_view>{}(std::string_view(
        reinterpret_cast<const char*>(d.row(r)),
        static_cast<size_t>(d.num_cols()) * sizeof(double)));
  };
  for (size_t fi = 0; fi < contexts.size(); ++fi) {
    const FunctionCtx& ctx = contexts[fi];
    const Dataset& test = *ctx.test;
    std::unordered_multimap<size_t, int> test_rows;
    for (int r = 0; r < test.num_rows(); ++r) {
      test_rows.emplace(row_hash(test, r), r);
    }
    std::set<std::pair<int, uint64_t>> seen;  // (n, data seed)
    for (const JobSpec& job : jobs) {
      if (job.function != static_cast<int>(fi) ||
          !seen.emplace(job.n, job.data_seed).second) {
        continue;
      }
      const Dataset train =
          fun::MakeScenarioDataset(*ctx.fn, job.n, ctx.design, job.data_seed);
      int shared = 0;
      for (int r = 0; r < train.num_rows(); ++r) {
        const auto [lo, hi] = test_rows.equal_range(row_hash(train, r));
        for (auto it = lo; it != hi; ++it) {
          shared += std::equal(train.row(r), train.row(r) + train.num_cols(),
                               test.row(it->second));
        }
      }
      out->Check(shared == 0, ctx.fn->name() + " training set (N=" +
                                  std::to_string(job.n) + ") shares " +
                                  std::to_string(shared) +
                                  " rows with its test set");
    }
  }
}

void CheckJobs(const Measured& m, const std::vector<JobSpec>& jobs,
               const std::vector<FunctionCtx>& contexts, Outcome* out) {
  out->attempted = static_cast<int64_t>(jobs.size());
  CheckIndependentTestSets(jobs, contexts, out);
  for (size_t i = 0; i < m.results.size(); ++i) {
    const JobResult& r = m.results[i];
    const std::string label = "job " + std::to_string(jobs[i].id) + " (" +
                              jobs[i].method + ")";
    // An empty trajectory is a failed job.
    if (!r.done || r.trajectory == 0) {
      ++out->failed;
      out->Check(false, label + " failed: " +
                            (r.done ? "empty trajectory" : r.error));
      continue;
    }
    out->Check(std::isfinite(r.metrics.pr_auc) && r.metrics.pr_auc >= 0.0 &&
                   r.metrics.pr_auc <= 100.0,
               label + " PR AUC out of range");
    out->Check(std::isfinite(r.metrics.precision) &&
                   r.metrics.precision >= 0.0 &&
                   r.metrics.precision <= 100.0,
               label + " precision out of range");
  }
}

/// The end-to-end metrics of a paper workload. paper_batch counts every
/// job as measured. paper_slice runs few long single-threaded jobs, where
/// one job caught in a slow second of a shared box moves a mean by 10%, so
/// its latency is the time to one training set's six-method solution set
/// assembled from each method's median job latency over the run's training
/// sets (jobs_per_s: six jobs per that time), and its quality is the mean
/// over methods of each method's median.
void ReportEndToEnd(const Measured& m, const std::vector<JobSpec>& jobs,
                    double setup_s, bool batch, Outcome* out) {
  std::map<std::string, std::vector<double>> latency_by_method;
  std::map<std::string, std::vector<double>> auc_by_method;
  std::map<std::string, std::vector<double>> precision_by_method;
  std::vector<double> latency_ms;
  std::vector<double> pr_auc;
  std::vector<double> precision;
  for (size_t i = 0; i < m.results.size(); ++i) {
    const JobResult& r = m.results[i];
    if (!r.done || r.trajectory == 0) continue;
    const double ms = static_cast<double>(r.finish_ns - r.submit_ns) / 1e6;
    latency_ms.push_back(ms);
    pr_auc.push_back(r.metrics.pr_auc);
    precision.push_back(r.metrics.precision);
    latency_by_method[jobs[i].method].push_back(ms);
    auc_by_method[jobs[i].method].push_back(r.metrics.pr_auc);
    precision_by_method[jobs[i].method].push_back(r.metrics.precision);
  }
  const size_t ok = latency_ms.size();
  double jobs_per_s = m.wall_s > 0.0 ? static_cast<double>(ok) / m.wall_s : 0.0;
  std::string n_note = "n=" + std::to_string(ok) + " jobs over " +
                       std::to_string(m.wall_s) + " s";
  double auc = Mean(pr_auc);
  double prec = Mean(precision);
  std::string quality_note = "mean over " + std::to_string(ok) + " cells";
  Percentile p50 = TailPercentile(latency_ms, 0.50);
  Percentile p90 = TailPercentile(latency_ms, 0.90);
  Percentile p99 = TailPercentile(latency_ms, 0.99);
  std::string latency_note;
  if (!batch) {
    double set_ms = 0.0;
    size_t per_method = 0;
    for (const auto& [method, v] : latency_by_method) {
      set_ms += NearestRank(v, 0.5).value;
      per_method = std::max(per_method, v.size());
    }
    jobs_per_s = set_ms > 0.0 ? static_cast<double>(latency_by_method.size()) /
                                    (set_ms / 1e3)
                              : 0.0;
    n_note = "jobs per solution-set time";
    // Fewer than 20 training sets: by the percentile rule the tails report
    // the median as well.
    const Percentile set{set_ms, 0.5, per_method};
    p50 = p90 = p99 = set;
    latency_note = "solution set from per-method medians over n=" +
                   std::to_string(per_method) + " training sets";
    std::vector<double> aucs, precs;
    for (const auto& [method, v] : auc_by_method) {
      aucs.push_back(NearestRank(v, 0.5).value);
    }
    for (const auto& [method, v] : precision_by_method) {
      precs.push_back(NearestRank(v, 0.5).value);
    }
    auc = Mean(aucs);
    prec = Mean(precs);
    quality_note = "mean over methods of per-method medians, n=" +
                   std::to_string(ok);
  }
  out->Add("setup_s", setup_s, "s",
           "median of " + std::to_string(kTimedSetups) +
               " set-ups after the measured phase");
  out->Add("jobs_per_s", jobs_per_s, "jobs/s", n_note);
  out->Add("latency_p50_ms", p50.value, "ms",
           batch ? PercentileNote(p50) : latency_note);
  out->Add("latency_p90_ms", p90.value, "ms",
           batch ? PercentileNote(p90) : latency_note);
  out->Add("latency_p99_ms", p99.value, "ms",
           batch ? PercentileNote(p99) : latency_note);
  // A closed loop runs at saturation by construction: the highest rate it
  // sustains, and its goodput, are its completion rate.
  out->Add("max_rate_rps", jobs_per_s, "req/s", "closed loop: = jobs_per_s");
  out->Add("goodput_rps", jobs_per_s, "req/s", "closed loop: = jobs_per_s");
  out->Add("pr_auc", auc, "%", quality_note);
  out->Add("precision", prec, "%", quality_note);
  out->Add("peak_rss_mb", PeakRssMb(), "MB");
  const double attempted = static_cast<double>(out->attempted);
  out->AddExtra("failed_frac",
                attempted > 0 ? static_cast<double>(out->failed) / attempted
                              : 0.0,
                "share", std::to_string(out->failed) + "/" +
                             std::to_string(out->attempted));
  out->AddExtra("shed_frac", 0.0, "share", "no admission control in-process");
}

/// Median job latency per method, for the reader.
void ReportPerMethod(const Measured& m, const std::vector<JobSpec>& jobs,
                     Outcome* out) {
  std::map<std::string, std::vector<double>> by_method;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const JobResult& r = m.results[i];
    if (!r.done) continue;
    by_method[jobs[i].method].push_back(
        static_cast<double>(r.finish_ns - r.submit_ns) / 1e6);
  }
  for (const auto& [method, ms] : by_method) {
    const Percentile p = NearestRank(ms, 0.5);
    const auto [lo, hi] = std::minmax_element(ms.begin(), ms.end());
    out->AddExtra("method." + method + ".p50_ms", p.value, "ms",
                  "n=" + std::to_string(p.n) + " min=" + std::to_string(*lo) +
                      " max=" + std::to_string(*hi));
  }
}

void ReportReplay(const std::vector<JobSpec>& jobs, const Measured& m,
                  const SpanRecorder& recorder, const ReplayCounts& counts,
                  const std::vector<Box>& replay_boxes, Outcome* out) {
  const std::vector<SpanRecord> spans = recorder.spans();
  const std::map<int64_t, int64_t> self = SelfTimesNs(spans);
  std::map<std::string, int64_t> by_name;
  std::map<uint64_t, const JobSpec*> job_of;
  for (const JobSpec& j : jobs) job_of[j.id] = &j;
  std::map<ml::MetamodelKind, int64_t> relabel_ns;
  int64_t replay_job_ns = 0;
  int64_t attributed_ns = 0;
  for (const SpanRecord& s : spans) {
    const int64_t self_ns = self.at(s.id);
    by_name[s.name] += self_ns;
    if (s.name == "job") {
      replay_job_ns += s.end_ns - s.start_ns;
      attributed_ns += (s.end_ns - s.start_ns) - self_ns;
    }
    if (s.name == "reds.relabel" || s.name == "reds.next_block") {
      const MethodSpec spec =
          MethodSpec::Parse(job_of.at(s.job)->method).value();
      relabel_ns[spec.metamodel] += self_ns;
    }
  }
  const auto seconds = [&](const std::string& name) {
    return static_cast<double>(by_name[name]) / 1e9;
  };
  out->Add("reds.relabel_s", seconds("reds.relabel") + seconds("reds.next_block"),
           "s", "sample + label, fits excluded");
  for (const auto& [kind, letter] :
       {std::pair<ml::MetamodelKind, const char*>{ml::MetamodelKind::kRandomForest, "f"},
        {ml::MetamodelKind::kGbt, "x"},
        {ml::MetamodelKind::kSvm, "s"}}) {
    const auto rows = counts.relabeled_rows.find(kind);
    const int64_t n = rows == counts.relabeled_rows.end() ? 0 : rows->second;
    out->Add(std::string("reds.ns_per_row.") + letter,
             n > 0 ? static_cast<double>(relabel_ns[kind]) / static_cast<double>(n)
                   : 0.0,
             "ns", "rows=" + std::to_string(n));
  }
  out->Add("binned_index.build_self_s", seconds("binned_index.build"), "s");
  out->Add("binned_index.ns_per_value",
           counts.streamed_values > 0
               ? static_cast<double>(by_name["binned_index.build"]) /
                     static_cast<double>(counts.streamed_values)
               : 0.0,
           "ns", "values=" + std::to_string(counts.streamed_values));
  out->Add("ml.fit_s", seconds("ml.fit"), "s");
  out->Add("ml.tune_s", seconds("ml.tune"), "s", "TuneAndFit incl. refit");
  int64_t fits = 0;
  for (const SpanRecord& s : spans) {
    if (s.name == "ml.fit" || s.name == "ml.tune") ++fits;
  }
  out->Add("ml.fits", static_cast<double>(fits), "count");
  out->Add("method.plan_s", seconds("method.plan"), "s");
  out->Add("method.plans", static_cast<double>(counts.plans), "count");
  out->Add("bumping.s", seconds("bumping"), "s");
  out->Add("bumping.replicates", static_cast<double>(counts.replicates), "count");
  out->Add("best_interval.s", seconds("best_interval"), "s");
  out->Add("prim.peel_s", seconds("prim.peel"), "s");
  out->Add("prim.boxes", static_cast<double>(counts.prim_boxes), "count");
  out->Add("quality.validate_s", seconds("quality.validate"), "s");
  out->Add("functions.simulate_s", seconds("functions.simulate"), "s");

  int64_t untraced_ns = 0;
  for (const JobResult& r : m.results) untraced_ns += r.finish_ns - r.submit_ns;
  const double untraced = static_cast<double>(untraced_ns);
  out->Add("trace.overhead_frac",
           untraced > 0 ? (static_cast<double>(replay_job_ns) - untraced) / untraced
                        : 0.0,
           "ratio", "replayed vs untraced job time");
  out->Add("trace.unattributed_frac",
           untraced > 0 ? 1.0 - static_cast<double>(attributed_ns) / untraced
                        : 0.0,
           "ratio", "untraced job time no span covers");
  out->AddExtra("trace.untraced_job_s", untraced / 1e9, "s");
  out->AddExtra("trace.replayed_job_s", static_cast<double>(replay_job_ns) / 1e9,
                "s");

  // The replay is only a faithful stage breakdown if it recomputes the
  // engine's answers: without a metamodel in the loop the boxes must match
  // bit for bit.
  for (size_t i = 0; i < jobs.size(); ++i) {
    const MethodSpec spec = MethodSpec::Parse(jobs[i].method).value();
    if (spec.reds || !m.results[i].done) continue;
    out->Check(replay_boxes[i] == m.results[i].last_box,
               "replay of job " + std::to_string(jobs[i].id) + " (" +
                   jobs[i].method + ") disagrees with the engine's box");
  }
}

Outcome RunPaper(const Args& args, const PaperConfig& config, bool batch) {
  Outcome out;
  const int64_t setup_start = NowNs();
  PaperState state = SetUp(config, args.seed);
  const double first_setup_s =
      static_cast<double>(NowNs() - setup_start) / 1e9;
  const int units = std::max(
      1, static_cast<int>(std::lround(
             args.seconds / (batch ? kBatchRoundSeconds : kSliceSeedSeconds))));
  const std::vector<JobSpec> jobs =
      batch ? BatchJobs(state.contexts, args.seed, units)
            : SliceJobs(state.contexts, args.seed, units);
  out.AddExtra(batch ? "rounds" : "training_seeds", units, "count");
  const int window = batch ? config.threads : 1;
  const Measured m = Measure(&state, jobs, window);
  CheckJobs(m, jobs, state.contexts, &out);
  if (!args.trace) {
    state = PaperState{};  // nothing below needs it
    const double setup_s =
        NearestRank(TimeSetUps(config, args.seed, kTimedSetups), 0.5).value;
    out.AddExtra("setup_first_s", first_setup_s, "s",
                 "the set-up before the measured phase");
    ReportEndToEnd(m, jobs, setup_s, batch, &out);
    ReportPerMethod(m, jobs, &out);
    return out;
  }

  SpanRecorder recorder;
  ReplayModels models;
  ReplayCounts counts;
  std::vector<Box> replay_boxes(jobs.size());
  {
    reds::ThreadPool pool(window);
    for (size_t i = 0; i < jobs.size(); ++i) {
      pool.Submit([&, i] {
        try {
          replay_boxes[i] =
              ReplayJob(state.contexts[static_cast<size_t>(jobs[i].function)],
                        jobs[i], &recorder, &models, &counts);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(counts.mutex);
          out.Check(false, "replay of job " + std::to_string(jobs[i].id) +
                               " threw: " + e.what());
        }
      });
    }
    pool.Wait();
  }
  ReportReplay(jobs, m, recorder, counts, replay_boxes, &out);
  AddEngineLayerMetrics(m.registry, &out);
  std::filesystem::create_directories(args.out_dir);
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".spans.jsonl";
  out.Check(recorder.WriteJsonLines(path), "cannot write " + path);
  return out;
}

}  // namespace

Outcome RunPaperBatch(const Args& args) {
  PaperConfig config;
  config.functions = kQuickFunctions;
  config.test_size = 8000;
  config.threads = HardwareThreads();
  return RunPaper(args, config, /*batch=*/true);
}

Outcome RunPaperSlice(const Args& args) {
  PaperConfig config;
  config.functions = {"morris"};
  config.test_size = 20000;
  // Jobs run one at a time, so one engine worker: parallelism inside a job
  // still gets every idle core.
  config.threads = 1;
  return RunPaper(args, config, /*batch=*/false);
}

}  // namespace e2e
