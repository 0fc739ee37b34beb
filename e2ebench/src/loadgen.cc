#include "loadgen.h"

#include <algorithm>
#include <limits>

namespace e2e {

double LatencyFromDueMs(const RequestRecord& r) {
  return static_cast<double>(r.done_ns - r.due_ns) / 1e6;
}

double LatenessMs(const RequestRecord& r) {
  return r.sent_ns < 0 ? 0.0 : static_cast<double>(r.sent_ns - r.due_ns) / 1e6;
}

int64_t OutstandingAt(const std::vector<RequestRecord>& records, int64_t t) {
  int64_t n = 0;
  for (const RequestRecord& r : records) {
    if (r.sent_ns < 0 || r.sent_ns > t) continue;
    if (r.done_ns < 0 || r.done_ns > t) ++n;
  }
  return n;
}

SegmentStats SummarizeSegment(const std::vector<RequestRecord>& records,
                              double limit_ms,
                              const std::vector<Window>& windows,
                              int64_t slack) {
  SegmentStats s;
  std::vector<double> done_ms;
  std::vector<double> all_ms;
  std::vector<int64_t> last_answer(windows.size());
  std::vector<std::vector<RequestRecord>> by_window(windows.size());
  for (size_t w = 0; w < windows.size(); ++w) {
    last_answer[w] = windows[w].start_ns;
  }
  for (const RequestRecord& r : records) {
    ++s.attempted;
    const size_t w = static_cast<size_t>(r.window);
    by_window[w].push_back(r);
    if (r.done_ns >= 0) last_answer[w] = std::max(last_answer[w], r.done_ns);
    switch (r.reply) {
      case Reply::kDone: {
        ++s.done;
        const double ms = LatencyFromDueMs(r);
        done_ms.push_back(ms);
        all_ms.push_back(ms);
        if (ms <= limit_ms) ++s.within_limit;
        break;
      }
      case Reply::kFailed:
        ++s.failed;
        all_ms.push_back(std::numeric_limits<double>::infinity());
        break;
      case Reply::kShed:
        ++s.shed;
        all_ms.push_back(std::numeric_limits<double>::infinity());
        break;
      case Reply::kPending:
        all_ms.push_back(std::numeric_limits<double>::infinity());
        break;
    }
  }
  s.p50 = TailPercentile(done_ms, 0.50);
  s.p90 = TailPercentile(done_ms, 0.90);
  s.p99 = TailPercentile(done_ms, 0.99);
  s.p99_all = TailPercentile(all_ms, 0.99);
  double span_s = 0.0;
  for (size_t w = 0; w < windows.size(); ++w) {
    span_s += static_cast<double>(last_answer[w] - windows[w].start_ns) / 1e9;
    const int64_t mid =
        windows[w].start_ns + (windows[w].end_ns - windows[w].start_ns) / 2;
    const int64_t at_mid = OutstandingAt(by_window[w], mid);
    const int64_t at_end = OutstandingAt(by_window[w], windows[w].end_ns);
    if (at_end > at_mid + slack) s.backlog_growing = true;
  }
  s.goodput_rps =
      span_s > 0.0 ? static_cast<double>(s.within_limit) / span_s : 0.0;
  s.meets_limit = s.p99_all.value <= limit_ms && !s.backlog_growing;
  return s;
}

}  // namespace e2e
