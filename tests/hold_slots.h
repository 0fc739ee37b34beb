// Test and bench helper: holds every busy slot of the process-wide
// fork-join with blocked ThreadPool tasks, so every ParallelFor region
// opened meanwhile runs inline on its caller. Comparing a run made under a
// HoldAllSlots against one made on an idle process checks that results do
// not depend on how many cores were idle.
#ifndef REDS_TESTS_HOLD_SLOTS_H_
#define REDS_TESTS_HOLD_SLOTS_H_

#include <condition_variable>
#include <mutex>
#include <thread>

#include "util/thread_pool.h"

namespace reds {

inline int HardwareSlots() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return n > 0 ? n : 1;
}

class HoldAllSlots {
 public:
  HoldAllSlots() : pool_(HardwareSlots()) {
    for (int i = 0; i < pool_.num_threads(); ++i) {
      pool_.Submit([this] {
        std::unique_lock<std::mutex> lock(mutex_);
        ++held_;
        changed_.notify_all();
        changed_.wait(lock, [this] { return released_; });
      });
    }
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [this] { return held_ == pool_.num_threads(); });
  }

  ~HoldAllSlots() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    changed_.notify_all();
    pool_.Wait();
  }

  HoldAllSlots(const HoldAllSlots&) = delete;
  HoldAllSlots& operator=(const HoldAllSlots&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  int held_ = 0;
  bool released_ = false;
  ThreadPool pool_;  // last: its workers die before the members above
};

}  // namespace reds

#endif  // REDS_TESTS_HOLD_SLOTS_H_
