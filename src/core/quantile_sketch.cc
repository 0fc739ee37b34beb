#include "core/quantile_sketch.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

namespace reds {

namespace {

// Order-preserving integer image of a double: ascending keys are ascending
// values, with -0.0 just below +0.0.
uint64_t SortKey(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

double FromSortKey(uint64_t key) {
  const uint64_t bits =
      (key >> 63) != 0 ? key & ~(uint64_t{1} << 63) : ~key;
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

// Sorts the insert buffer ascending with an LSD radix sort over SortKey,
// skipping byte positions every key shares. When no two values compare
// equal without being the same bits -- i.e. no -0.0 (equal to +0.0) and no
// NaN (unordered) -- every correct sort yields the same sequence, so this is
// exactly std::sort's result. Buffers holding either keep std::sort, whose
// arrangement of such ties the summary has always recorded.
void SortBuffer(std::vector<double>* buffer) {
  const size_t n = buffer->size();
  static thread_local std::vector<uint64_t> keys, scratch;
  keys.resize(n);
  scratch.resize(n);
  uint32_t count[8][256] = {};
  for (size_t i = 0; i < n; ++i) {
    const double v = (*buffer)[i];
    if (std::isnan(v) || (v == 0.0 && std::signbit(v))) {
      std::sort(buffer->begin(), buffer->end());
      return;
    }
    const uint64_t key = SortKey(v);
    keys[i] = key;
    for (int pass = 0; pass < 8; ++pass) {
      ++count[pass][(key >> (8 * pass)) & 0xFF];
    }
  }
  uint64_t* src = keys.data();
  uint64_t* dst = scratch.data();
  for (int pass = 0; pass < 8; ++pass) {
    uint32_t* bucket = count[pass];
    const int shift = 8 * pass;
    if (bucket[(src[0] >> shift) & 0xFF] == n) continue;  // shared byte
    uint32_t offset = 0;
    for (int b = 0; b < 256; ++b) {
      const uint32_t c = bucket[b];
      bucket[b] = offset;
      offset += c;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = src[i];
      dst[bucket[(key >> shift) & 0xFF]++] = key;
    }
    std::swap(src, dst);
  }
  for (size_t i = 0; i < n; ++i) (*buffer)[i] = FromSortKey(src[i]);
}

}  // namespace

QuantileSketch::QuantileSketch(double eps) : eps_(eps) {
  assert(eps > 0.0 && eps < 0.5);
  buffer_cap_ = std::max<size_t>(16, static_cast<size_t>(1.0 / (2.0 * eps)));
  buffer_.reserve(buffer_cap_);
}

int64_t QuantileSketch::GapBudget(int64_t n) const {
  return std::max<int64_t>(1, static_cast<int64_t>(2.0 * eps_ *
                                                   static_cast<double>(n)));
}

void QuantileSketch::Add(double v) {
  buffer_.push_back(v);
  if (buffer_.size() >= buffer_cap_) {
    Flush();
    Compress();
  }
}

void QuantileSketch::AddWeighted(double v, int64_t w) {
  if (w <= 0) return;
  Flush();
  const auto it = std::lower_bound(
      tuples_.begin(), tuples_.end(), v,
      [](const Tuple& t, double x) { return t.v < x; });
  if (it != tuples_.end() && it->v == v) {
    // w more copies of an already-summarized value: every rank at or past
    // this tuple shifts by exactly w, so growing its g keeps the summary
    // valid with no new uncertainty.
    it->g += w;
  } else {
    Tuple t;
    t.v = v;
    t.g = w;
    // A brand-new value inherits the classic GK insertion uncertainty from
    // its successor -- unless the successor is pure (its mass is all copies
    // of a larger value, so none of it can precede v) in which case only
    // the predecessor's own uncertainty remains. At either extreme it is
    // exact.
    if (it == tuples_.end() || it == tuples_.begin()) {
      t.delta = 0;
    } else if (it->pure) {
      t.delta = std::prev(it)->delta;
    } else {
      t.delta = it->g + it->delta - 1;
    }
    tuples_.insert(it, t);
  }
  n_ += w;
  Compress();
}

// Each pair lands as AddWeighted would land it past the current maximum: a
// new exact tuple (delta 0) at the end, then a Compress pass. That pass
// merges nothing unless some adjacent pair (i-1, i), i >= 2, satisfies
// g[i-1] + g[i] + delta[i] <= budget (with no earlier merge the pending
// tuple is just tuples_[i-1]); tracking the smallest such sum skips every
// no-op pass while running each effective one exactly as AddWeighted does.
void QuantileSketch::AddSortedWeighted(const double* v, const int64_t* w,
                                       size_t k) {
  Flush();
  const auto min_pair_sum = [this] {
    int64_t best = std::numeric_limits<int64_t>::max();
    for (size_t i = 2; i < tuples_.size(); ++i) {
      best = std::min(best,
                      tuples_[i - 1].g + tuples_[i].g + tuples_[i].delta);
    }
    return best;
  };
  int64_t min_pair = min_pair_sum();
  for (size_t i = 0; i < k; ++i) {
    if (w[i] <= 0) continue;
    assert(tuples_.empty() || v[i] > tuples_.back().v);
    Tuple t;
    t.v = v[i];
    t.g = w[i];
    tuples_.push_back(t);
    n_ += w[i];
    const size_t size = tuples_.size();
    if (size >= 3) {
      min_pair = std::min(min_pair, tuples_[size - 2].g + t.g);
    }
    if (min_pair <= GapBudget(n_)) {
      Compress();
      min_pair = min_pair_sum();
    }
  }
}

// Folds the sorted insert buffer into the tuple list. Equivalent to
// inserting the buffered values one at a time in ascending order: each
// lands as (v, g=1, delta) where delta is its successor's g + delta - 1
// (the classic GK insertion bound), or 0 when it is the running minimum or
// maximum -- so the extremes stay exact. The merge runs in place: the
// existing tuples first move to the back of the grown array, and the write
// cursor (one past the merged prefix) never passes the next unread tuple.
void QuantileSketch::Flush() const {
  if (buffer_.empty()) return;
  SortBuffer(&buffer_);
  const size_t t = tuples_.size();
  const size_t k = buffer_.size();
  tuples_.reserve(t + k);
  tuples_.resize(t + k);
  std::move_backward(tuples_.begin(),
                     tuples_.begin() + static_cast<ptrdiff_t>(t),
                     tuples_.end());
  const Tuple* old = tuples_.data() + k;  // old[i]: the i-th existing tuple
  size_t i = 0, j = 0, w = 0;
  // Once the buffer is used up, the remaining tuples already sit in place.
  while (j < k) {
    // Existing tuples win ties so an equal-valued insert sees them as its
    // successor (conservative and deterministic).
    if (i < t && old[i].v <= buffer_[j]) {
      tuples_[w++] = old[i++];
      continue;
    }
    Tuple nt;
    nt.v = buffer_[j++];
    nt.g = 1;
    if (i >= t) {
      nt.delta = 0;  // running maximum (everything seen so far is <= v)
    } else if (old[i].pure) {
      // The successor's mass is all copies of its own (strictly larger)
      // value, so none of it precedes v: only the predecessor's
      // uncertainty carries over. Essential next to heavy weighted
      // tuples, whose g would otherwise poison every nearby insert.
      nt.delta = w == 0 ? 0 : tuples_[w - 1].delta;
    } else {
      nt.delta = old[i].g + old[i].delta - 1;
    }
    if (w == 0) nt.delta = 0;  // running minimum
    tuples_[w++] = nt;
  }
  n_ += static_cast<int64_t>(k);
  buffer_.clear();
}

// One forward pass that greedily merges a tuple into its right neighbor
// whenever the combined gap stays within the budget. The first and last
// tuples always survive, keeping the stream minimum and maximum exact.
// Runs in place: the write cursor never passes the read cursor.
void QuantileSketch::Compress() const {
  if (tuples_.size() < 3) return;
  const int64_t budget = GapBudget(n_);
  size_t out = 1;  // tuples_[0] stays
  Tuple pending = tuples_[1];
  for (size_t i = 2; i < tuples_.size(); ++i) {
    Tuple next = tuples_[i];
    if (pending.g + next.g + next.delta <= budget) {
      // Absorb: next keeps its value and delta. Its mass now includes
      // pending's observations, so purity only survives when both tuples
      // carried copies of the same value.
      next.pure = next.pure && pending.pure && pending.v == next.v;
      next.g += pending.g;
      pending = next;
    } else {
      tuples_[out++] = pending;
      pending = next;
    }
  }
  tuples_[out++] = pending;
  tuples_.resize(out);
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  assert(eps_ == other.eps_ && "merged sketches must share eps");
  assert(&other != this);
  other.Flush();
  Flush();
  if (other.tuples_.empty()) return;
  if (tuples_.empty()) {
    tuples_ = other.tuples_;
    n_ = other.n_;
    return;
  }
  // Merge-walk by value. A tuple keeps its g; its delta grows by the gap of
  // its successor in the *other* summary (the other stream may interleave
  // that many values before it), which preserves the combined gap budget:
  // g + delta' <= 2*eps*n_a + 2*eps*n_b = 2*eps*n. In place, as in Flush:
  // this summary's tuples move to the back first.
  const size_t na = tuples_.size();
  const std::vector<Tuple>& b = other.tuples_;
  tuples_.reserve(na + b.size());
  tuples_.resize(na + b.size());
  std::move_backward(tuples_.begin(),
                     tuples_.begin() + static_cast<ptrdiff_t>(na),
                     tuples_.end());
  const Tuple* a = tuples_.data() + b.size();  // a[i]: this summary's i-th
  size_t i = 0, j = 0, w = 0;
  while (i < na || j < b.size()) {
    const bool take_a = i < na && (j >= b.size() || a[i].v <= b[j].v);
    Tuple t = take_a ? a[i] : b[j];
    // The peer's next unconsumed tuple and its predecessor.
    const size_t peer_k = take_a ? j : i;
    const size_t peer_size = take_a ? b.size() : na;
    if (peer_k < peer_size) {
      const Tuple& next = take_a ? b[peer_k] : a[peer_k];
      if (next.pure) {
        // The peer successor's mass is all copies of its own (>= t.v)
        // value, so it cannot interleave below t.v; the uncertainty in how
        // many peer values precede t.v is the peer predecessor's delta.
        t.delta += peer_k > 0 ? (take_a ? b[peer_k - 1] : a[peer_k - 1]).delta
                              : 0;
      } else {
        t.delta += next.g + next.delta - 1;
      }
    }
    tuples_[w++] = t;
    (take_a ? i : j)++;
  }
  n_ += other.n_;
  Compress();
}

double QuantileSketch::QueryRank(int64_t rank) const {
  Flush();
  if (tuples_.empty()) return 0.0;
  const int64_t r1 =
      std::clamp<int64_t>(rank, 0, n_ - 1) + 1;  // 1-based target
  // The first and last tuples are the exact stream extremes (delta 0,
  // never compressed away); answer extreme ranks from them directly.
  if (r1 <= 1) return tuples_.front().v;
  if (r1 >= n_) return tuples_.back().v;
  const double allowed = eps_ * static_cast<double>(n_);
  int64_t rmin = 0;
  double prev = tuples_[0].v;
  for (const Tuple& t : tuples_) {
    rmin += t.g;
    const int64_t rmax = rmin + t.delta;
    // A pure tuple's g observations are all copies of t.v occupying g
    // consecutive ranks whose last lands in [rmin, rmax]; ranks in
    // (rmin - g + delta, rmin] are therefore covered no matter where the
    // run actually sits, and answering them with t.v is error-free. This
    // matters for weighted inserts, whose g can exceed the gap budget --
    // the generic bound below does not hold for them.
    if (t.pure && r1 > rmin - t.g + t.delta && r1 <= rmin) return t.v;
    if (static_cast<double>(rmax) > static_cast<double>(r1) + allowed) {
      return prev;
    }
    prev = t.v;
  }
  return tuples_.back().v;
}

double QuantileSketch::QueryQuantile(double q) const {
  const int64_t n = count();
  if (n == 0) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  return QueryRank(
      static_cast<int64_t>(std::llround(clamped * static_cast<double>(n - 1))));
}

void QuantileSketch::ReserveMerge(size_t tuples) {
  // Merge flushes this sketch's buffer into tuples_, then merges in place.
  tuples_.reserve(tuples_.size() + buffer_.size() + tuples);
}

size_t QuantileSketch::SummarySize() const {
  Flush();
  return tuples_.size();
}

void QuantileSketch::SerializeTo(util::ByteWriter* out) const {
  Flush();
  out->F64(eps_);
  out->U64(static_cast<uint64_t>(n_));
  out->U64(static_cast<uint64_t>(tuples_.size()));
  for (const Tuple& t : tuples_) {
    out->F64(t.v);
    out->U64(static_cast<uint64_t>(t.g));
    out->U64(static_cast<uint64_t>(t.delta));
    out->U8(t.pure ? 1 : 0);
  }
}

Result<QuantileSketch> QuantileSketch::DeserializeFrom(util::ByteReader* in) {
  const double eps = in->F64();
  const int64_t n = static_cast<int64_t>(in->U64());
  const uint64_t num_tuples = in->U64();
  if (!in->ok() || !(eps > 0.0) || eps >= 1.0 || n < 0) {
    return Status::InvalidArgument("quantile sketch: corrupt header");
  }
  if (num_tuples > in->remaining() / 25) {  // 8 + 8 + 8 + 1 bytes per tuple
    return Status::InvalidArgument("quantile sketch: truncated tuple list");
  }
  QuantileSketch sketch(eps);
  sketch.n_ = n;
  sketch.tuples_.resize(static_cast<size_t>(num_tuples));
  int64_t total_g = 0;
  double prev_v = 0.0;
  for (size_t i = 0; i < sketch.tuples_.size(); ++i) {
    Tuple& t = sketch.tuples_[i];
    t.v = in->F64();
    t.g = static_cast<int64_t>(in->U64());
    t.delta = static_cast<int64_t>(in->U64());
    t.pure = in->U8() != 0;
    if (t.g < 0 || t.delta < 0 || (i > 0 && t.v < prev_v)) {
      return Status::InvalidArgument("quantile sketch: invalid tuple");
    }
    prev_v = t.v;
    total_g += t.g;
  }
  if (!in->ok() || total_g != n) {
    return Status::InvalidArgument("quantile sketch: tuple mass mismatch");
  }
  return sketch;
}

}  // namespace reds
