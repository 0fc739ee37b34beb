// The process-wide fork-join (ParallelFor): every index runs exactly once,
// nested regions and regions opened from pool workers complete, an
// exception in one index reaches the caller and stops further claims, spans
// opened inside a region land in the caller's trace, and the threads
// running indices never outnumber the hardware threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/discovery_engine.h"
#include "hold_slots.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace reds {
namespace {

void SpinFor(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

// Tracks how many threads are inside an index at once.
class ConcurrencyProbe {
 public:
  void Enter() {
    const int now = inside_.fetch_add(1) + 1;
    int seen = max_.load();
    while (now > seen && !max_.compare_exchange_weak(seen, now)) {
    }
  }
  void Leave() { inside_.fetch_sub(1); }
  int max() const { return max_.load(); }

 private:
  std::atomic<int> inside_{0};
  std::atomic<int> max_{0};
};

TEST(ForkJoinTest, RunsEveryIndexOnceAndEmptyRangesNotAtAll) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, 1000, [&](int i) { hits[static_cast<size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  int calls = 0;
  ParallelFor(5, 5, [&](int) { ++calls; });
  ParallelFor(5, 2, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ForkJoinTest, NestedRegionsComplete) {
  constexpr int kOuter = 8, kMiddle = 6, kInner = 50;
  std::vector<std::atomic<int>> hits(kOuter * kMiddle * kInner);
  ParallelFor(0, kOuter, [&](int a) {
    ParallelFor(0, kMiddle, [&](int b) {
      ParallelFor(0, kInner, [&](int c) {
        SpinFor(std::chrono::microseconds(20));
        hits[static_cast<size_t>((a * kMiddle + b) * kInner + c)]++;
      });
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ForkJoinTest, ExceptionReachesCallerAndStopsClaims) {
  std::atomic<int> ran{0};
  EXPECT_THROW(ParallelFor(0, 1000,
                           [&](int i) {
                             ran++;
                             if (i == 0) throw std::runtime_error("index 0");
                             SpinFor(std::chrono::milliseconds(1));
                           }),
               std::runtime_error);
  // Index 0 is the caller's first claim; after it throws, only indices
  // already claimed by helpers may still run.
  EXPECT_LT(ran.load(), 100);

  // Thrown from a nested region, through an outer one.
  EXPECT_THROW(ParallelFor(0, 4,
                           [&](int a) {
                             ParallelFor(0, 4, [&](int b) {
                               if (a == 2 && b == 3) {
                                 throw std::logic_error("nested");
                               }
                             });
                           }),
               std::logic_error);

  // The fork-join still works afterwards.
  std::atomic<int> after{0};
  ParallelFor(0, 64, [&](int) { after++; });
  EXPECT_EQ(after.load(), 64);
}

TEST(ForkJoinTest, SpansInsideARegionLandInTheCallersTrace) {
  obs::Trace trace("fork-join");
  {
    obs::TraceBinding binding(&trace);
    ParallelFor(0, 64, [](int) {
      obs::Span span("chunk");
      SpinFor(std::chrono::microseconds(200));
    });
  }
  EXPECT_EQ(trace.CountEvents("chunk"), 64);
  // Nothing leaks onto helpers afterwards: an unbound region records no
  // spans anywhere.
  ParallelFor(0, 64, [](int) { obs::Span span("unbound"); });
  EXPECT_EQ(trace.CountEvents("unbound"), 0);
}

TEST(ForkJoinTest, IdleCoresHelpAndCountersAddUp) {
  const ForkJoinStats before = GetForkJoinStats();
  std::mutex mutex;
  std::set<std::thread::id> threads;
  ParallelFor(0, 64, [&](int) {
    SpinFor(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(mutex);
    threads.insert(std::this_thread::get_id());
  });
  const ForkJoinStats after = GetForkJoinStats();
  EXPECT_EQ(after.regions - before.regions, 1u);
  EXPECT_LE(static_cast<int>(threads.size()), HardwareSlots());
  if (HardwareSlots() > 1) {
    EXPECT_GT(after.helper_chunks - before.helper_chunks, 0u);
    EXPECT_GT(threads.size(), 1u);
    EXPECT_EQ(after.inline_regions, before.inline_regions);
  }
}

// Every slot held by a blocked pool task (a full box, like paper_batch):
// a region opened from another pool worker -- an engine worker -- runs
// entirely inline on that worker and finishes.
TEST(ForkJoinTest, RegionFromPoolWorkerRunsInlineWhileEverySlotIsHeld) {
  HoldAllSlots hold;
  const ForkJoinStats before = GetForkJoinStats();
  std::mutex mutex;
  std::set<std::thread::id> threads;
  std::thread::id worker_id;
  ThreadPool worker(1);
  worker.Submit([&] {
    worker_id = std::this_thread::get_id();
    ParallelFor(0, 32, [&](int) {
      SpinFor(std::chrono::microseconds(200));
      std::lock_guard<std::mutex> lock(mutex);
      threads.insert(std::this_thread::get_id());
    });
  });
  worker.Wait();
  ForkJoinStats after = GetForkJoinStats();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(*threads.begin(), worker_id);
  EXPECT_EQ(after.regions - before.regions, 1u);
  EXPECT_EQ(after.inline_regions - before.inline_regions, 1u);
  EXPECT_EQ(after.helper_chunks, before.helper_chunks);

  // A whole tuned REDS job on an engine worker: every region inside it
  // (CV tuning, tree fits, labeling, sketch and code passes) runs inline.
  Rng rng(3);
  auto data = std::make_shared<Dataset>(4);
  std::vector<double> x(4);
  for (int i = 0; i < 300; ++i) {
    for (double& v : x) v = rng.Uniform();
    data->AddRow(x, x[0] < 0.4 && x[1] > 0.3 ? 1.0 : 0.0);
  }
  engine::DiscoveryEngine engine({/*threads=*/1});
  engine::DiscoveryRequest request;
  request.train = data;
  request.method = "RPx";
  request.options.l_prim = 5000;
  request.options.seed = 9;
  const ForkJoinStats job_before = GetForkJoinStats();
  const auto job = engine.Submit(std::move(request));
  engine.WaitAll();
  ASSERT_EQ(job->state(), engine::JobState::kDone) << job->error();
  after = GetForkJoinStats();
  EXPECT_GT(after.regions, job_before.regions);
  EXPECT_EQ(after.inline_regions - job_before.inline_regions,
            after.regions - job_before.regions);
  EXPECT_EQ(after.helper_chunks, job_before.helper_chunks);
}

// The threads inside indices never outnumber the hardware threads: not on
// an idle process, not when every pool worker opens a region at once, and
// not when some slots are held (then at most the free slots run indices).
TEST(ForkJoinTest, ConcurrencyNeverExceedsHardwareThreads) {
  const int hw = HardwareSlots();
  const auto body = [](ConcurrencyProbe* probe) {
    return [probe](int) {
      probe->Enter();
      SpinFor(std::chrono::microseconds(300));
      probe->Leave();
    };
  };
  {
    ConcurrencyProbe probe;
    ParallelFor(0, 200, body(&probe));
    EXPECT_LE(probe.max(), hw);
  }
  {
    // Every pool worker is running before any opens its region.
    ConcurrencyProbe probe;
    std::atomic<int> started{0};
    ThreadPool pool(hw);
    for (int w = 0; w < hw; ++w) {
      pool.Submit([&] {
        started++;
        while (started.load() < hw) std::this_thread::yield();
        ParallelFor(0, 100, body(&probe));
      });
    }
    pool.Wait();
    EXPECT_LE(probe.max(), hw);
  }
  if (hw > 2) {
    // Hold all but two slots: this thread plus at most one helper.
    ThreadPool holders(hw - 2);
    std::mutex mutex;
    std::condition_variable cv;
    int held = 0;
    bool release = false;
    for (int w = 0; w < hw - 2; ++w) {
      holders.Submit([&] {
        std::unique_lock<std::mutex> lock(mutex);
        ++held;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
      });
    }
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return held == hw - 2; });
    }
    ConcurrencyProbe probe;
    ParallelFor(0, 200, body(&probe));
    EXPECT_LE(probe.max(), 2);
    {
      std::lock_guard<std::mutex> lock(mutex);
      release = true;
    }
    cv.notify_all();
    holders.Wait();
  }
}

}  // namespace
}  // namespace reds
