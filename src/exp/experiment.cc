#include "exp/experiment.h"

#include <algorithm>
#include <stdexcept>

#include "util/thread_pool.h"

namespace reds::exp {

uint64_t TrainingDataSeed(uint64_t seed, size_t function_index, int n,
                          int rep) {
  return DeriveSeed(seed, (function_index + 1) * 1000003ULL +
                              static_cast<uint64_t>(n) * 131ULL +
                              static_cast<uint64_t>(rep));
}

uint64_t TestDataSeed(uint64_t seed, size_t function_index) {
  return DeriveSeed(seed, 0x7e57ULL ^ (function_index + 1));
}

Dataset MakeTestSet(const fun::TestFunction& f, int n, fun::DesignKind design,
                    int max_train_rows, uint64_t seed) {
  if (design != fun::DesignKind::kHalton) {
    return fun::MakeScenarioDataset(f, n, design, seed);
  }
  return fun::LabelDesign(
      f,
      sampling::HaltonDesign(n, f.dim(), fun::kHaltonLeapEnd + max_train_rows),
      seed);
}

double RelativeChangePercent(double value, double baseline) {
  if (baseline == 0.0) return 0.0;
  return 100.0 * (value - baseline) / baseline;
}

std::string Runner::Key(const std::string& function, const std::string& method,
                        int n) const {
  return function + "|" + method + "|" + std::to_string(n);
}

const CellResult& Runner::cell(const std::string& function,
                               const std::string& method, int n) const {
  if (engine_ == nullptr) {
    throw std::out_of_range("no cell " + Key(function, method, n) +
                            " (Run() not called)");
  }
  return engine_->results().cell(Key(function, method, n));
}

std::vector<double> Runner::FunctionMeans(const std::string& method, int n,
                                          double MetricSet::* field) const {
  std::vector<double> out;
  out.reserve(config_.functions.size());
  for (const auto& f : config_.functions) {
    const CellResult& c = cell(f, method, n);
    double sum = 0.0;
    for (const auto& m : c.reps) sum += m.*field;
    out.push_back(c.reps.empty() ? 0.0 : sum / static_cast<double>(c.reps.size()));
  }
  return out;
}

std::vector<double> Runner::FunctionConsistencies(const std::string& method,
                                                  int n) const {
  std::vector<double> out;
  out.reserve(config_.functions.size());
  for (const auto& f : config_.functions) {
    out.push_back(cell(f, method, n).consistency);
  }
  return out;
}

void Runner::Run() {
  if (ran_) return;
  try {
    RunImpl();
    ran_ = true;
  } catch (...) {
    // Leave no partially populated result store behind a "ran" flag.
    engine_.reset();
    throw;
  }
}

void Runner::RunImpl() {
  struct FunctionContext {
    std::unique_ptr<fun::TestFunction> function;
    fun::DesignKind design;
    std::shared_ptr<const Dataset> test;
    std::shared_ptr<const std::vector<bool>> relevant;
  };

  // Instantiate functions and their shared test sets up front.
  std::vector<FunctionContext> contexts;
  contexts.reserve(config_.functions.size());
  for (const auto& name : config_.functions) {
    auto fn = fun::MakeFunction(name);
    if (!fn.ok()) {
      throw std::invalid_argument("unknown function '" + name +
                                  "': " + fn.status().ToString());
    }
    FunctionContext ctx;
    ctx.function = std::move(*fn);
    ctx.design = config_.design_override.value_or(
        fun::DefaultDesignFor(*ctx.function));
    ctx.relevant =
        std::make_shared<const std::vector<bool>>(ctx.function->relevant());
    contexts.push_back(std::move(ctx));
  }
  {
    ThreadPool pool(config_.threads);
    const int max_train_rows =
        *std::max_element(config_.sizes.begin(), config_.sizes.end());
    for (size_t fi = 0; fi < contexts.size(); ++fi) {
      pool.Submit([this, &contexts, fi, max_train_rows] {
        FunctionContext& ctx = contexts[fi];
        // Test data: same input distribution, fresh points and labels.
        ctx.test = std::make_shared<const Dataset>(
            MakeTestSet(*ctx.function, config_.test_size, ctx.design,
                        max_train_rows, TestDataSeed(config_.seed, fi)));
      });
    }
    pool.Wait();
  }

  // All cells run as discovery requests on a shared engine; REDS metamodels
  // are cached across method variants of the same (function, N, rep)
  // dataset, and REDS + PRIM cells stream their L relabeled points through
  // the quantized plane instead of materializing them per job.
  engine::EngineConfig engine_config;
  engine_config.threads = config_.threads;
  engine_config.seed = config_.seed;
  engine_config.stream_block_rows = config_.options.stream_block_rows;
  engine_ = std::make_unique<engine::DiscoveryEngine>(engine_config);

  // Pre-size all cells so results land in stable slots.
  for (const auto& f : config_.functions) {
    for (const auto& m : config_.methods) {
      for (int n : config_.sizes) {
        engine_->results().Reserve(Key(f, m, n), config_.reps);
      }
    }
  }

  // Submission order: method outermost, so consecutive jobs target
  // *different* datasets. Were the M method variants of one dataset
  // adjacent, the first worker to start a REDS job would fit the shared
  // metamodel while its neighbours block on the same cache entry instead
  // of working on other cells.
  std::vector<engine::JobHandle> jobs;
  jobs.reserve(contexts.size() * config_.methods.size() *
               config_.sizes.size() * static_cast<size_t>(config_.reps));
  for (size_t mi = 0; mi < config_.methods.size(); ++mi) {
    for (size_t fi = 0; fi < contexts.size(); ++fi) {
      const FunctionContext& ctx = contexts[fi];
      for (int n : config_.sizes) {
        for (int rep = 0; rep < config_.reps; ++rep) {
          // Data seed depends on (function, N, rep) only: all methods see
          // the same datasets (paired comparisons), and the engine's
          // metamodel cache fits each (dataset, metamodel kind)
          // combination once.
          const uint64_t data_seed =
              TrainingDataSeed(config_.seed, fi, n, rep);
          engine::DiscoveryRequest request;
          request.make_train = [&ctx, n, data_seed] {
            return fun::MakeScenarioDataset(*ctx.function, n, ctx.design,
                                            data_seed);
          };
          request.method = config_.methods[mi];
          request.options = config_.options;
          request.options.sampler = fun::SamplerFor(ctx.design);
          request.options.seed = DeriveSeed(data_seed, 0x6d ^ (mi + 1));
          request.test = ctx.test;
          request.relevant = ctx.relevant;
          request.cell = Key(config_.functions[fi], config_.methods[mi], n);
          request.rep = rep;
          request.keep_output = false;
          jobs.push_back(engine_->Submit(std::move(request)));
        }
      }
    }
  }
  engine_->WaitAll();
  for (const auto& job : jobs) {
    if (job->state() == engine::JobState::kFailed) {
      throw std::runtime_error("discovery job '" + job->request().cell +
                               "' failed: " + job->error());
    }
  }

  // Consistency: pairwise box overlap across repetitions; unit-cube domain.
  for (size_t fi = 0; fi < contexts.size(); ++fi) {
    const int dims = contexts[fi].function->dim();
    const std::vector<double> lo(static_cast<size_t>(dims), 0.0);
    const std::vector<double> hi(static_cast<size_t>(dims), 1.0);
    for (const auto& m : config_.methods) {
      for (int n : config_.sizes) {
        engine_->results().ComputeConsistency(Key(config_.functions[fi], m, n),
                                              lo, hi);
      }
    }
  }

  // The engine outlives Run() (it owns the result store the accessors
  // read); the fitted metamodels are dead weight from here on, and the
  // worker pool would otherwise idle for the Runner's remaining lifetime.
  engine_->ClearMetamodelCache();
  engine_->Shutdown();
}

}  // namespace reds::exp
