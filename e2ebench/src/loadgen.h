// Open-loop accounting: every request has a due time fixed by the
// schedule before the run starts. Latency is measured from the due time
// (so a stalled generator or server charges the wait to every request
// queued behind the stall), and how late the generator actually sent each
// request is reported separately as the run's own validity check.
#ifndef E2EBENCH_LOADGEN_H_
#define E2EBENCH_LOADGEN_H_

#include <cstdint>
#include <vector>

#include "common.h"

namespace e2e {

enum class Reply { kPending, kDone, kFailed, kShed };

struct RequestRecord {
  int category = 0;
  int segment = 0;  // ladder step
  int window = 0;   // index of the schedule window it was due in
  int64_t due_ns = 0;
  int64_t sent_ns = -1;
  int64_t ack_ns = -1;   // SubmitAck (or shed) arrival
  int64_t done_ns = -1;  // ResultDone / shed / error arrival
  Reply reply = Reply::kPending;
  uint64_t server_ns = 0;  // ResultDone::server_latency_ns
  uint8_t flags = 0;       // ResultDone::flags
};

/// done - due, in ms; only meaningful for kDone.
double LatencyFromDueMs(const RequestRecord& r);
/// sent - due, in ms (0 for requests never sent).
double LatenessMs(const RequestRecord& r);

/// Requests sent but not answered at time t.
int64_t OutstandingAt(const std::vector<RequestRecord>& records, int64_t t);

/// One stretch of the schedule: [start_ns, end_ns] runs from its start
/// to its last due time.
struct Window {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One rate step of the ladder, over all of its windows.
struct SegmentStats {
  int64_t attempted = 0;
  int64_t done = 0;
  int64_t failed = 0;
  int64_t shed = 0;
  int64_t within_limit = 0;  // done with latency <= limit
  /// Percentiles of completed requests' due-time latency.
  Percentile p50, p90, p99;
  /// p99 over all attempts with every shed/failed/unanswered request
  /// counted as missing the limit (+infinity).
  Percentile p99_all;
  /// Within-limit completions per second of the step's windows, each
  /// spanning its start to its last answer.
  double goodput_rps = 0.0;
  /// Some window ended with more than `slack` requests outstanding beyond
  /// those outstanding at its midpoint.
  bool backlog_growing = false;
  bool meets_limit = false;  // p99_all <= limit and no growing backlog
};

/// Summarizes the records of one ladder step; record.window indexes
/// `windows`.
SegmentStats SummarizeSegment(const std::vector<RequestRecord>& records,
                              double limit_ms,
                              const std::vector<Window>& windows,
                              int64_t slack);

}  // namespace e2e

#endif  // E2EBENCH_LOADGEN_H_
