#include "util/thread_pool.h"

#include <pthread.h>

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "obs/trace.h"

namespace reds {

namespace {

int HardwareThreads() {
  static const int n =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return n;
}

// Threads doing work right now, process-wide: ThreadPool workers running a
// task, ParallelFor callers and helpers inside a region. A thread is
// counted at most once, however deeply its work nests.
std::atomic<int> g_busy{0};
thread_local bool t_counted = false;

// Counts the current thread as busy for the scope, unless an outer scope
// already does.
class BusyScope {
 public:
  BusyScope() : owns_(!t_counted) {
    if (owns_) {
      t_counted = true;
      g_busy.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  ~BusyScope() {
    if (owns_) {
      g_busy.fetch_sub(1, std::memory_order_acq_rel);
      t_counted = false;
    }
  }
  BusyScope(const BusyScope&) = delete;
  BusyScope& operator=(const BusyScope&) = delete;

 private:
  const bool owns_;
};

// Stack of each fork-join helper thread. The deepest recursion a helper
// runs is tree growth inside a ParallelFor body (one RF tree per index; a
// GBT round is at most max_depth levels), about 340 bytes a level in an
// optimized build. Helper stacks peaked under 17 KB across the test suite
// and both memory smokes, so 2 MiB leaves over 100x headroom for deeper
// trees and sanitizer frames. The default stack (RLIMIT_STACK, 8 MiB on
// most systems) per helper is address space that a process under a
// memory cap cannot spare.
constexpr size_t kHelperStackBytes = size_t{2} << 20;

// One open ParallelFor call. Lives on the caller's stack; the caller
// unlinks it and waits for helpers == 0 before it returns, so no helper
// touches it afterwards.
struct Region {
  Region(const std::function<void(int)>& body, int begin, int end,
         obs::Trace* trace)
      : body(body), end(end), trace(trace), next(begin) {}

  const std::function<void(int)>& body;
  const int end;
  obs::Trace* const trace;
  std::atomic<int> next;
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;  // the first exception; guarded by error_mutex
  // Guarded by the fork-join mutex.
  int helpers = 0;
  uint64_t helper_chunks = 0;
  std::condition_variable helpers_done;

  bool Claimable() const {
    return !failed.load(std::memory_order_acquire) &&
           next.load(std::memory_order_relaxed) < end;
  }

  // Claims and runs indices until none is left or one has failed; returns
  // how many this thread ran. A helper also stops claiming once the process
  // is oversubscribed (pool tasks started after it joined), so it gives its
  // slot back within one index.
  uint64_t RunChunks(bool helper) {
    uint64_t ran = 0;
    while (!failed.load(std::memory_order_acquire)) {
      if (helper &&
          g_busy.load(std::memory_order_acquire) > HardwareThreads()) {
        break;
      }
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) break;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (error == nullptr) error = std::current_exception();
        failed.store(true, std::memory_order_release);
      }
      ++ran;
    }
    return ran;
  }
};

class ForkJoin {
 public:
  // Lives as long as the process and is never destroyed, so its helpers are
  // detached rather than joined: a region opened from another static
  // object's destructor, or in a forked child (which has no helpers), still
  // finds a valid fork-join.
  static ForkJoin& Get() {
    static ForkJoin* const instance = new ForkJoin();
    return *instance;
  }

  void Run(int begin, int end, const std::function<void(int)>& body) {
    BusyScope busy;
    regions_.fetch_add(1, std::memory_order_relaxed);
    if (end - begin == 1 || HardwareThreads() == 1 ||
        g_busy.load(std::memory_order_acquire) >= HardwareThreads()) {
      // No helper could join: skip the hand-off entirely.
      inline_regions_.fetch_add(1, std::memory_order_relaxed);
      for (int i = begin; i < end; ++i) body(i);
      return;
    }
    std::call_once(started_, [this] { StartHelpers(); });
    Region region(body, begin, end, obs::CurrentTrace());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_.push_back(&region);
      ++generation_;
    }
    work_.notify_all();
    region.RunChunks(/*helper=*/false);
    uint64_t helper_chunks = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      open_.erase(std::find(open_.begin(), open_.end(), &region));
      region.helpers_done.wait(lock, [&region] { return region.helpers == 0; });
      helper_chunks = region.helper_chunks;
    }
    helper_chunks_.fetch_add(helper_chunks, std::memory_order_relaxed);
    if (helper_chunks == 0) {
      inline_regions_.fetch_add(1, std::memory_order_relaxed);
    }
    if (region.error != nullptr) std::rethrow_exception(region.error);
  }

  ForkJoinStats Stats() const {
    ForkJoinStats s;
    s.regions = regions_.load(std::memory_order_relaxed);
    s.helper_chunks = helper_chunks_.load(std::memory_order_relaxed);
    s.inline_regions = inline_regions_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  ForkJoin() = default;

  void StartHelpers() {
    // A child forked while a helper holds the mutex would inherit it
    // locked; holding it across fork() hands the child an unlocked copy.
    // The child has no helpers, so its regions run on their callers.
    pthread_atfork([] { Get().mutex_.lock(); }, [] { Get().mutex_.unlock(); },
                   [] { Get().mutex_.unlock(); });
    // Detached helpers with a fixed stack (see kHelperStackBytes). A
    // helper that cannot start is skipped: its share runs on the callers.
    pthread_attr_t attr;
    pthread_attr_init(&attr);
    pthread_attr_setstacksize(&attr, kHelperStackBytes);
    pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
    for (int i = 1; i < HardwareThreads(); ++i) {
      pthread_t helper;
      if (pthread_create(&helper, &attr, &ForkJoin::HelperMain, this) != 0) {
        break;
      }
    }
    pthread_attr_destroy(&attr);
  }

  static void* HelperMain(void* self) {
    static_cast<ForkJoin*>(self)->HelperLoop();
    return nullptr;
  }

  // Takes a busy slot when the process has one to spare.
  static bool TryTakeSlot() {
    int busy = g_busy.load(std::memory_order_acquire);
    while (busy < HardwareThreads()) {
      if (g_busy.compare_exchange_weak(busy, busy + 1,
                                       std::memory_order_acq_rel)) {
        return true;
      }
    }
    return false;
  }

  void HelperLoop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      Region* region = nullptr;
      for (Region* open : open_) {
        if (open->Claimable()) {
          region = open;
          break;
        }
      }
      if (region == nullptr || !TryTakeSlot()) {
        // Nothing to take, or the box is full: sleep until a region opens.
        const uint64_t seen = generation_;
        work_.wait(lock, [this, seen] { return generation_ != seen; });
        continue;
      }
      ++region->helpers;
      lock.unlock();
      t_counted = true;
      uint64_t ran = 0;
      {
        obs::TraceBinding binding(region->trace);
        ran = region->RunChunks(/*helper=*/true);
      }
      t_counted = false;
      g_busy.fetch_sub(1, std::memory_order_acq_rel);
      lock.lock();
      region->helper_chunks += ran;
      if (--region->helpers == 0) region->helpers_done.notify_one();
    }
  }

  std::once_flag started_;
  std::mutex mutex_;
  std::condition_variable work_;
  uint64_t generation_ = 0;      // bumped whenever a region opens
  std::vector<Region*> open_;    // oldest first
  std::atomic<uint64_t> regions_{0};
  std::atomic<uint64_t> helper_chunks_{0};
  std::atomic<uint64_t> inline_regions_{0};
};

}  // namespace

ThreadPool::ThreadPool(int num_threads, obs::MetricsRegistry* metrics,
                       const std::string& metric_prefix) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  num_threads = std::max(num_threads, 1);
  if (metrics != nullptr) {
    queue_depth_ = metrics->gauge(metric_prefix + ".queue_depth");
    active_workers_ = metrics->gauge(metric_prefix + ".active_workers");
    task_wait_ = metrics->histogram(metric_prefix + ".task_wait_ns");
    tasks_completed_ = metrics->counter(metric_prefix + ".tasks_completed");
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stop_) return;  // already shut down (workers drain before exiting)
    stop_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  Task entry{std::move(task), {}};
  if (task_wait_ != nullptr) {
    entry.enqueued = std::chrono::steady_clock::now();
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stop_) {
      throw std::logic_error("ThreadPool::Submit after Shutdown");
    }
    tasks_.push(std::move(entry));
  }
  if (queue_depth_ != nullptr) queue_depth_->Add(1);
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return tasks_.empty() && active_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      ++active_;
    }
    if (queue_depth_ != nullptr) queue_depth_->Add(-1);
    if (active_workers_ != nullptr) active_workers_->Add(1);
    if (task_wait_ != nullptr) {
      task_wait_->Observe(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - task.enqueued)
              .count()));
    }
    {
      BusyScope busy;
      task.fn();
    }
    if (active_workers_ != nullptr) active_workers_->Add(-1);
    if (tasks_completed_ != nullptr) tasks_completed_->Add(1);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --active_;
      if (tasks_.empty() && active_ == 0) all_done_.notify_all();
    }
  }
}

void ParallelFor(int begin, int end, const std::function<void(int)>& body) {
  if (end <= begin) return;
  ForkJoin::Get().Run(begin, end, body);
}

ForkJoinStats GetForkJoinStats() { return ForkJoin::Get().Stats(); }

}  // namespace reds
