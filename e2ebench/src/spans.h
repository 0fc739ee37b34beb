// In-memory span recorder of the traced replay. The benchmark opens spans
// around its own calls into each layer's public entry points (nothing
// inside the library is instrumented here); spans are kept in memory and
// written out once the run ends.
#ifndef E2EBENCH_SPANS_H_
#define E2EBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;  // 0: root
  uint64_t job = 0;    // job / request id the span belongs to
};

/// Thread-safe collection of spans. Parents are tracked per thread: a
/// ScopedSpan opened while another ScopedSpan of the same recorder is open
/// on this thread becomes its child.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  int64_t NextId();
  void Add(SpanRecord span);
  std::vector<SpanRecord> spans() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  int64_t next_id_ = 1;
};

/// RAII span: records [construction, destruction) under the innermost
/// open ScopedSpan of this thread as parent.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, uint64_t job);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return span_.id; }

 private:
  SpanRecorder* recorder_;
  SpanRecord span_;
  int64_t saved_parent_;
};

/// Length of the union of `intervals` clipped to [lo, hi).
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi);

/// Self time of every span: its duration minus the part of it covered by
/// the union of its children (children may overlap each other, e.g. when
/// they ran on several threads, and may stick out of the parent).
std::map<int64_t, int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

/// Self time summed per span name.
std::map<std::string, int64_t> SelfTimeByName(
    const std::vector<SpanRecord>& spans);

}  // namespace e2e

#endif  // E2EBENCH_SPANS_H_
