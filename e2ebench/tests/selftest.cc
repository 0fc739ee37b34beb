// Self-test of the benchmark's own arithmetic: the percentile rule, span
// self times (including overlapping children), and open-loop due-time
// latency / lateness accounting. Plain checks, no test framework; exits
// non-zero on the first failure.
//
//   cmake --build .bench_build --target e2e_selftest && .bench_build/e2e_selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "common.h"
#include "loadgen.h"
#include "spans.h"

namespace e2e {
namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void PercentileRule() {
  // 1000 samples: p99 is rank 990, exactly ten samples beyond it.
  Percentile p = TailPercentile(Iota(1000), 0.99);
  EXPECT(Near(p.value, 990.0) && Near(p.q, 0.99) && p.n == 1000);
  // 500 samples: p99 would leave five beyond; the rule falls back to rank
  // 490 (p98), the highest with ten beyond.
  p = TailPercentile(Iota(500), 0.99);
  EXPECT(Near(p.value, 490.0) && Near(p.q, 0.98));
  // Input order does not matter.
  std::vector<double> shuffled = Iota(500);
  std::swap(shuffled[0], shuffled[499]);
  std::swap(shuffled[10], shuffled[300]);
  EXPECT(Near(TailPercentile(shuffled, 0.99).value, 490.0));
  // A percentile the rule already allows is reported as asked.
  p = TailPercentile(Iota(100), 0.5);
  EXPECT(Near(p.value, 50.0) && Near(p.q, 0.5));
  p = TailPercentile(Iota(100), 0.9);
  EXPECT(Near(p.value, 90.0));
  // Too few samples for any tail: the median is reported.
  p = TailPercentile(Iota(15), 0.99);
  EXPECT(Near(p.value, 8.0) && Near(p.q, 8.0 / 15.0));
  p = TailPercentile(Iota(5), 0.9);
  EXPECT(Near(p.value, 3.0));
  EXPECT(TailPercentile({}, 0.99).n == 0);
  // Infinite samples (misses) sort last and are reported when reached.
  std::vector<double> with_misses = Iota(100);
  for (int i = 0; i < 20; ++i) {
    with_misses.push_back(std::numeric_limits<double>::infinity());
  }
  EXPECT(std::isinf(TailPercentile(with_misses, 0.99).value));
  // Plain nearest rank.
  EXPECT(Near(NearestRank({3.0, 1.0, 2.0}, 0.5).value, 2.0));
  EXPECT(Near(NearestRank({1.0, 2.0, 3.0, 4.0}, 0.5).value, 2.0));
}

SpanRecord Span(const char* name, int64_t start, int64_t end, int64_t id,
                int64_t parent) {
  return SpanRecord{name, start, end, id, parent, 1};
}

void SpanSelfTimes() {
  EXPECT(CoveredNs({{0, 10}, {5, 15}}, 0, 100) == 15);
  EXPECT(CoveredNs({{0, 10}, {20, 30}}, 0, 100) == 20);
  EXPECT(CoveredNs({{0, 10}, {2, 4}}, 0, 100) == 10);
  EXPECT(CoveredNs({{-5, 10}, {90, 120}}, 0, 100) == 20);  // clipped
  EXPECT(CoveredNs({}, 0, 100) == 0);

  // job [0,100): children a [10,40) and b [30,60) overlap by 10, c [90,110)
  // sticks out; a has a grandchild [15,25).
  std::vector<SpanRecord> spans = {
      Span("job", 0, 100, 1, 0),    Span("a", 10, 40, 2, 1),
      Span("b", 30, 60, 3, 1),      Span("c", 90, 110, 4, 1),
      Span("a.inner", 15, 25, 5, 2),
  };
  const auto self = SelfTimesNs(spans);
  EXPECT(self.at(1) == 100 - (50 + 10));  // union of a, b = 50; c clipped to 10
  EXPECT(self.at(2) == 30 - 10);
  EXPECT(self.at(3) == 30);
  EXPECT(self.at(4) == 20);
  EXPECT(self.at(5) == 10);
  // Overlapping children double count by name, never in the parent.
  const auto by_name = SelfTimeByName(spans);
  EXPECT(by_name.at("job") == 40);
  EXPECT(by_name.at("a") + by_name.at("a.inner") == 30);

  // The recorder nests spans per thread.
  SpanRecorder recorder;
  {
    ScopedSpan outer(&recorder, "outer", 7);
    { ScopedSpan inner(&recorder, "inner", 7); }
  }
  const std::vector<SpanRecord> recorded = recorder.spans();
  EXPECT(recorded.size() == 2);
  if (recorded.size() == 2) {
    const SpanRecord& inner = recorded[0];
    const SpanRecord& outer = recorded[1];
    EXPECT(inner.name == "inner" && outer.name == "outer");
    EXPECT(inner.parent == outer.id && outer.parent == 0);
    EXPECT(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    EXPECT(inner.job == 7);
  }
}

RequestRecord Rec(int64_t due, int64_t sent, int64_t done, Reply reply) {
  RequestRecord r;
  r.due_ns = due;
  r.sent_ns = sent;
  r.ack_ns = sent < 0 ? -1 : sent;
  r.done_ns = done;
  r.reply = reply;
  return r;
}

void DueTimeAccounting() {
  const int64_t ms = 1'000'000;
  // Sent 3 ms late, answered 10 ms after sending: latency counts from due.
  const RequestRecord late = Rec(100 * ms, 103 * ms, 113 * ms, Reply::kDone);
  EXPECT(Near(LatencyFromDueMs(late), 13.0));
  EXPECT(Near(LatenessMs(late), 3.0));
  EXPECT(Near(LatenessMs(Rec(0, -1, -1, Reply::kPending)), 0.0));

  // 20 requests due every 10 ms over [0, 190] ms; 18 answered in 5 ms, one
  // shed, one answered after 2 s (misses a 1 s limit).
  std::vector<RequestRecord> recs;
  for (int i = 0; i < 20; ++i) {
    const int64_t due = i * 10 * ms;
    if (i == 7) {
      recs.push_back(Rec(due, due, due + ms, Reply::kShed));
    } else if (i == 9) {
      recs.push_back(Rec(due, due, due + 2000 * ms, Reply::kDone));
    } else {
      recs.push_back(Rec(due, due, due + 5 * ms, Reply::kDone));
    }
  }
  SegmentStats s = SummarizeSegment(recs, 1000.0, {{0, 190 * ms}}, 4);
  EXPECT(s.attempted == 20 && s.done == 19 && s.shed == 1 && s.failed == 0);
  EXPECT(s.attempted == s.done + s.failed + s.shed);
  EXPECT(s.within_limit == 18);
  EXPECT(Near(s.p50.value, 5.0));
  // Span: first due (0) to last answer (90 ms + 2 s).
  EXPECT(Near(s.goodput_rps, 18.0 / 2.09));
  // Two misses in 20: p99 over attempts (median fallback, n < 20 + 10) is
  // still a completed request; with many misses it is infinite.
  EXPECT(!s.backlog_growing);
  EXPECT(s.meets_limit == (s.p99_all.value <= 1000.0));

  // A backlog that grows: nothing answered in the second half.
  std::vector<RequestRecord> growing;
  for (int i = 0; i < 40; ++i) {
    const int64_t due = i * 10 * ms;
    const int64_t done = i < 20 ? due + ms : 10'000 * ms;
    growing.push_back(Rec(due, due, done, Reply::kDone));
  }
  s = SummarizeSegment(growing, 100000.0, {{0, 390 * ms}}, 4);
  EXPECT(s.backlog_growing);
  EXPECT(!s.meets_limit);
  EXPECT(OutstandingAt(growing, 195 * ms) == 0);
  EXPECT(OutstandingAt(growing, 390 * ms) == 20);

  // Sheds in the tail: 30 of 130 shed, so p99 over attempts is a miss.
  std::vector<RequestRecord> shedding;
  for (int i = 0; i < 130; ++i) {
    const int64_t due = i * ms;
    shedding.push_back(
        Rec(due, due, due + ms, i % 4 == 0 && i < 120 ? Reply::kShed : Reply::kDone));
  }
  s = SummarizeSegment(shedding, 1000.0, {{0, 129 * ms}}, 4);
  EXPECT(std::isinf(s.p99_all.value));
  EXPECT(!s.meets_limit);
  EXPECT(Near(s.p99.value, 1.0));

  // Two windows of one step: goodput divides by the sum of their spans,
  // not by the gap between them.
  std::vector<RequestRecord> split;
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 10; ++i) {
      const int64_t due = (w * 1000 + i * 10) * ms;
      RequestRecord r = Rec(due, due, due + 10 * ms, Reply::kDone);
      r.window = w;
      split.push_back(r);
    }
  }
  s = SummarizeSegment(split, 1000.0, {{0, 90 * ms}, {1000 * ms, 1090 * ms}},
                       4);
  EXPECT(s.attempted == 20 && s.within_limit == 20);
  EXPECT(Near(s.goodput_rps, 20.0 / 0.2));  // two spans of 100 ms
  EXPECT(!s.backlog_growing && s.meets_limit);
}

}  // namespace
}  // namespace e2e

int main() {
  e2e::PercentileRule();
  e2e::SpanSelfTimes();
  e2e::DueTimeAccounting();
  if (e2e::failures == 0) std::printf("e2e_selftest: all checks passed\n");
  return e2e::failures == 0 ? 0 : 1;
}
