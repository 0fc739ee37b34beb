#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common.h"

namespace e2e {

namespace {

// Innermost open span of this thread (0: none). One benchmark process
// traces into one recorder at a time, so a single slot suffices.
thread_local int64_t t_open_span = 0;

}  // namespace

int64_t SpanRecorder::NextId() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanRecorder::Add(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : all) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%lld,\"parent\":%lld,\"job\":%llu}\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.job));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string name, uint64_t job)
    : recorder_(recorder), saved_parent_(t_open_span) {
  span_.name = std::move(name);
  span_.job = job;
  span_.id = recorder_->NextId();
  span_.parent = t_open_span;
  t_open_span = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = NowNs();
  t_open_span = saved_parent_;
  recorder_->Add(std::move(span_));
}

int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    const int64_t from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return covered;
}

std::map<int64_t, int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<int64_t, int64_t> self;
  for (const SpanRecord& s : spans) {
    const int64_t duration = s.end_ns - s.start_ns;
    auto it = children.find(s.id);
    const int64_t covered =
        it == children.end() ? 0 : CoveredNs(it->second, s.start_ns, s.end_ns);
    self[s.id] = duration - covered;
  }
  return self;
}

std::map<std::string, int64_t> SelfTimeByName(
    const std::vector<SpanRecord>& spans) {
  const std::map<int64_t, int64_t> self = SelfTimesNs(spans);
  std::map<std::string, int64_t> by_name;
  for (const SpanRecord& s : spans) by_name[s.name] += self.at(s.id);
  return by_name;
}

}  // namespace e2e
