// Single-flight get-or-build cache (Guava's LoadingCache, Go's singleflight):
// every engine cache tier and the server's dataset registry is one of these.
//
// Contract:
// - One mutex per instance, never held while a build runs.
// - Concurrent callers of one key share one build: the first runs it, the
//   rest wait on its shared future. In-flight builds are pinned outside the
//   LRU, so eviction pressure can never start a duplicate build.
// - A build that throws is not cached: every waiter of that attempt gets
//   its exception, and the next call retries.
// - Clear() drops finished and in-flight entries; an attempt that finishes
//   afterwards returns its value uncached and never overwrites a successor.
// - `<prefix>.hits` (finished entries and waits on an in-flight build),
//   `<prefix>.<miss_name>` (builds started) and `<prefix>.evictions`
//   counters plus a `<prefix>.size` gauge (finished + in-flight entries)
//   live in the registry passed in, or a private one when none is.
//
// A build may call GetOrBuild on other memos, but never on a memo it is
// itself being built for: a waiter would then wait on its own build. The
// engine's builds nest only downward -- relabel stream -> metamodel ->
// binned index -> column index -- and the server's dataset builds call no
// memo, so no wait cycle exists.
#ifndef REDS_UTIL_MEMO_H_
#define REDS_UTIL_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "util/lru_map.h"

namespace reds {

/// How one GetOrBuild call was served.
enum class MemoOutcome {
  kHit,     // a finished entry
  kJoined,  // waited on another caller's in-flight build
  kBuilt,   // ran the build itself
};

template <typename Key, typename Value>
class Memo {
 public:
  /// `capacity` bounds the finished entries (LRU); 0 = unbounded.
  Memo(size_t capacity, obs::MetricsRegistry* metrics,
       const std::string& prefix, const std::string& miss_name = "misses")
      : entries_(capacity) {
    if (metrics == nullptr) {
      owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
      metrics = owned_metrics_.get();
    }
    hits_ = metrics->counter(prefix + ".hits");
    misses_ = metrics->counter(prefix + "." + miss_name);
    evictions_ = metrics->counter(prefix + ".evictions");
    size_gauge_ = metrics->gauge(prefix + ".size");
  }

  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  /// The value cached for `key`, running `build()` (at most once at a time
  /// per key) when there is none. `outcome`, when given, is set before the
  /// call builds or waits, so it is valid even when the call throws.
  template <typename Build>
  Value GetOrBuild(const Key& key, Build&& build,
                   MemoOutcome* outcome = nullptr) {
    std::promise<Value> promise;
    std::shared_ptr<Entry> mine;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (std::shared_ptr<Entry>* found = entries_.Get(key)) {
        hits_->Add(1);
        if (outcome != nullptr) *outcome = MemoOutcome::kHit;
        return (*found)->get();  // finished: no blocking under the lock
      }
      const auto running = in_flight_.find(key);
      if (running != in_flight_.end()) {
        hits_->Add(1);
        if (outcome != nullptr) *outcome = MemoOutcome::kJoined;
        const std::shared_ptr<Entry> entry = running->second;
        lock.unlock();
        return entry->get();  // blocks until the owning build settles
      }
      mine = std::make_shared<Entry>(promise.get_future().share());
      in_flight_.emplace(key, mine);
      misses_->Add(1);
      UpdateSizeGauge();
    }
    if (outcome != nullptr) *outcome = MemoOutcome::kBuilt;
    try {
      Value value = build();
      promise.set_value(value);
      Settle(key, mine, /*keep=*/true);
      return value;
    } catch (...) {
      Settle(key, mine, /*keep=*/false);
      promise.set_exception(std::current_exception());
      throw;
    }
  }

  uint64_t hits() const { return hits_->Value(); }
  uint64_t misses() const { return misses_->Value(); }
  uint64_t evictions() const { return evictions_->Value(); }

  /// Finished plus in-flight entries.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size() + in_flight_.size();
  }

  /// Drops every entry; counters are kept, drops are not evictions.
  void Clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.Clear();
    in_flight_.clear();
    UpdateSizeGauge();
  }

 private:
  // Held by shared_ptr so an attempt settles exactly its own slot (identity
  // compare), never a successor inserted after a Clear().
  using Entry = std::shared_future<Value>;

  // Moves this attempt out of the in-flight set, into the LRU when `keep`.
  void Settle(const Key& key, const std::shared_ptr<Entry>& mine, bool keep) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = in_flight_.find(key);
    if (it == in_flight_.end() || it->second != mine) return;
    in_flight_.erase(it);
    if (keep) {
      const uint64_t before = entries_.evictions();
      entries_.Put(key, mine);
      evictions_->Add(entries_.evictions() - before);
    }
    UpdateSizeGauge();
  }

  void UpdateSizeGauge() {  // requires mutex_ held
    size_gauge_->Set(static_cast<int64_t>(entries_.size() + in_flight_.size()));
  }

  mutable std::mutex mutex_;
  std::map<Key, std::shared_ptr<Entry>> in_flight_;  // pinned, never evicted
  LruMap<Key, std::shared_ptr<Entry>> entries_;      // finished, LRU-bounded
  // Fallback registry when none is shared in; declared before the metric
  // pointers it backs.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Gauge* size_gauge_ = nullptr;
};

}  // namespace reds

#endif  // REDS_UTIL_MEMO_H_
