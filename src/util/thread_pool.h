// Fixed-size thread pool, plus the process-wide fork-join (ParallelFor) that
// lets one job spread its independent loops over the cores the rest of the
// process leaves idle. The experiment harness and the engine use the pool
// to run whole jobs concurrently; the fork-join runs the loops inside them.
#ifndef REDS_UTIL_THREAD_POOL_H_
#define REDS_UTIL_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace reds {

/// Fixed-size worker pool. Tasks are void() callables; Wait() blocks until
/// the queue drains and all in-flight tasks finish. A worker counts as a
/// busy thread for ParallelFor while it runs a task.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (defaults to hardware
  /// concurrency; always at least one). When `metrics` is non-null the
  /// pool maintains `<prefix>.queue_depth` / `<prefix>.active_workers`
  /// gauges, a `<prefix>.task_wait_ns` histogram (submit-to-start latency,
  /// the backpressure signal), and a `<prefix>.tasks_completed` counter.
  /// Short-lived private pools (PRIM backends, benches) pass null and pay
  /// nothing.
  explicit ThreadPool(int num_threads = 0,
                      obs::MetricsRegistry* metrics = nullptr,
                      const std::string& metric_prefix = "engine.pool");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution. Throws std::logic_error after
  /// Shutdown().
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed.
  void Wait();

  /// Drains the queue, then stops and joins every worker thread, releasing
  /// their stacks and OS handles. Idempotent; the destructor calls it.
  /// After Shutdown() the pool accepts no further tasks.
  void Shutdown();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;  // set when instrumented
  };

  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<Task> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  int active_ = 0;
  bool stop_ = false;
  // Resolved once at construction; all null when no registry is attached.
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* active_workers_ = nullptr;
  obs::Histogram* task_wait_ = nullptr;
  obs::Counter* tasks_completed_ = nullptr;
};

/// Runs body(i) for every i in [begin, end) and returns once all have run.
/// One work-conserving fork-join serves the whole process:
///  * Caller-runs. The calling thread claims indices through an atomic
///    cursor and runs them itself; it waits only for indices a helper has
///    already started. A region is never slower than the serial loop beyond
///    the hand-off (one lock and one wake-up) and one atomic per index,
///    nested regions cannot deadlock, and a region may be opened from a
///    ThreadPool task.
///  * No oversubscription. hardware_concurrency - 1 helper threads start
///    lazily, once per process. A process-wide count tracks the threads
///    doing work (ThreadPool workers running a task, ParallelFor callers,
///    helpers running indices); a helper joins a region only while that
///    count is below hardware_concurrency, and stops claiming once pool
///    tasks started after it push the count above. On a full box every
///    region runs inline on its caller.
///  * Exceptions. An index that throws stops further claims; the first
///    exception is rethrown to the caller after the started indices finish.
///  * Tracing. Helpers run under the caller's obs::TraceBinding, so spans
///    opened inside body land in the caller's trace.
/// Which thread runs an index is unspecified. Callers write per-index
/// results into their own slots and combine them in index order, so results
/// never depend on how many cores were idle.
void ParallelFor(int begin, int end, const std::function<void(int)>& body);

/// Process-wide fork-join counters since process start.
struct ForkJoinStats {
  uint64_t regions = 0;         // ParallelFor calls over a non-empty range
  uint64_t helper_chunks = 0;   // indices run by helper threads
  uint64_t inline_regions = 0;  // regions whose every index ran on the caller
};

ForkJoinStats GetForkJoinStats();

}  // namespace reds

#endif  // REDS_UTIL_THREAD_POOL_H_
