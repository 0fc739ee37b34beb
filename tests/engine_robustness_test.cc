// Engine robustness: CSV export racing concurrent Record()s (the store must
// not hold its mutex across file I/O), engine Shutdown() releasing the
// worker pool while results stay readable, and the shared per-dataset
// column-index cache.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/discovery_engine.h"
#include "engine/result_store.h"
#include "util/rng.h"

namespace reds::engine {
namespace {

// Keep these engines hermetic: a developer's REDS_CACHE_DIR must not leak
// persistent-cache state into shutdown/robustness behavior.
const bool kHermetic = [] {
  unsetenv("REDS_CACHE_DIR");
  return true;
}();

std::shared_ptr<const Dataset> MakeData(int n, int dim, uint64_t seed) {
  Rng rng(seed);
  auto d = std::make_shared<Dataset>(dim);
  std::vector<double> x(static_cast<size_t>(dim));
  for (int i = 0; i < n; ++i) {
    for (auto& v : x) v = rng.Uniform();
    d->AddRow(x, (x[0] < 0.45 && x[1] > 0.3) ? 1.0 : 0.0);
  }
  return d;
}

RunOptions FastOptions() {
  RunOptions options;
  options.l_prim = 1200;
  options.l_bi = 600;
  options.tune_metamodel = false;
  options.seed = 5;
  return options;
}

TEST(ResultStoreConcurrencyTest, WriteCsvWhileRecording) {
  ResultStore store;
  const std::string path = "/tmp/reds_store_concurrent_test.csv";
  constexpr int kWriters = 4;
  constexpr int kRepsPerWriter = 200;
  std::atomic<bool> start{false};

  // Writers append repetitions while a reader exports snapshots: neither
  // side may deadlock or crash, and every snapshot must parse.
  std::vector<std::thread> workers;
  for (int w = 0; w < kWriters; ++w) {
    workers.emplace_back([&store, &start, w] {
      while (!start.load()) std::this_thread::yield();
      const Box box = Box::Unbounded(2);
      for (int r = 0; r < kRepsPerWriter; ++r) {
        MetricSet m;
        m.pr_auc = static_cast<double>(w * kRepsPerWriter + r);
        store.Record("cell" + std::to_string(w), r, m, box);
      }
    });
  }
  std::thread exporter([&store, &start, &path] {
    while (!start.load()) std::this_thread::yield();
    for (int i = 0; i < 25; ++i) {
      const Status status = store.WriteCsv(path);
      ASSERT_TRUE(status.ok()) << status.ToString();
      const auto snapshot = ReadCsvFile(path);
      ASSERT_TRUE(snapshot.ok());
    }
  });
  start.store(true);
  for (auto& t : workers) t.join();
  exporter.join();

  ASSERT_TRUE(store.WriteCsv(path).ok());
  const auto final_table = ReadCsvFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(final_table.ok());
  EXPECT_EQ(final_table->rows.size(),
            static_cast<size_t>(kWriters * kRepsPerWriter));
}

TEST(DiscoveryEngineShutdownTest, ResultsReadableAfterShutdown) {
  const auto train = MakeData(150, 3, 1);
  DiscoveryEngine engine({/*threads=*/2});
  const auto job = engine.Submit([&] {
    DiscoveryRequest request;
    request.train = train;
    request.method = "P";
    request.options = FastOptions();
    request.cell = "p_cell";
    return request;
  }());
  engine.Shutdown();  // drains the queue, joins the workers
  ASSERT_EQ(job->state(), JobState::kDone)
      << (job->state() == JobState::kFailed ? job->error() : "");
  EXPECT_TRUE(engine.results().Contains("p_cell"));
  EXPECT_EQ(engine.results().cell("p_cell").reps.size(), 1u);

  engine.Shutdown();  // idempotent
  // The pool is gone: further submissions are rejected loudly rather than
  // queueing forever.
  DiscoveryRequest late;
  late.train = train;
  late.method = "P";
  late.options = FastOptions();
  EXPECT_THROW(engine.Submit(std::move(late)), std::logic_error);
}

TEST(DiscoveryEngineColumnIndexTest, BatchOverSameDataIndexesOnce) {
  const auto train = MakeData(200, 4, 7);
  DiscoveryEngine engine({/*threads=*/4});
  // Non-REDS variants scan the original dataset: one shared index serves
  // the whole batch.
  for (const char* method : {"P", "BI", "P", "BI"}) {
    DiscoveryRequest request;
    request.train = train;
    request.method = method;
    request.options = FastOptions();
    request.cell = std::string("cell_") + method;
    engine.Submit(std::move(request));
  }
  engine.WaitAll();
  EXPECT_EQ(engine.metrics().GaugeValue("cache.index.column.size"), 1);

  // The same data through the direct accessor reuses the cached index.
  const auto index = engine.GetColumnIndex(*train);
  EXPECT_EQ(engine.metrics().GaugeValue("cache.index.column.size"), 1);
  EXPECT_EQ(index->num_rows(), train->num_rows());
}

}  // namespace
}  // namespace reds::engine
