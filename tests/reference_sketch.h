// Test-only oracles for the streamed index build: the straightforward
// per-value forms of the Greenwald-Khanna sketch, the per-column summary and
// the bin coder. The library's versions restructure the same steps for speed
// (radix-sorted flushes, in-place compression, one-run spills, a bucketed
// coder); these keep the plain formulation -- std::sort per flush, a fresh
// vector per merge and compress pass, one AddWeighted per spilled pair, a
// whole-array std::lower_bound per value -- and write the same wire layout,
// so tests can demand byte-identical state.
#ifndef REDS_TESTS_REFERENCE_SKETCH_H_
#define REDS_TESTS_REFERENCE_SKETCH_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "util/serialize.h"

namespace reds::reference {

class Sketch {
 public:
  explicit Sketch(double eps) : eps_(eps) {
    buffer_cap_ = std::max<size_t>(16, static_cast<size_t>(1.0 / (2.0 * eps)));
  }

  void Add(double v) {
    buffer_.push_back(v);
    if (buffer_.size() >= buffer_cap_) {
      Flush();
      Compress();
    }
  }

  void AddWeighted(double v, int64_t w) {
    if (w <= 0) return;
    Flush();
    const auto it = std::lower_bound(
        tuples_.begin(), tuples_.end(), v,
        [](const Tuple& t, double x) { return t.v < x; });
    if (it != tuples_.end() && it->v == v) {
      it->g += w;
    } else {
      Tuple t;
      t.v = v;
      t.g = w;
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

  void Merge(Sketch other) {
    other.Flush();
    Flush();
    if (other.tuples_.empty()) return;
    if (tuples_.empty()) {
      tuples_ = other.tuples_;
      n_ = other.n_;
      return;
    }
    std::vector<Tuple> merged;
    const std::vector<Tuple>& a = tuples_;
    const std::vector<Tuple>& b = other.tuples_;
    size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
      const bool take_a = i < a.size() && (j >= b.size() || a[i].v <= b[j].v);
      const std::vector<Tuple>& self = take_a ? a : b;
      const std::vector<Tuple>& peer = take_a ? b : a;
      size_t& k = take_a ? i : j;
      const size_t peer_k = take_a ? j : i;
      Tuple t = self[k];
      if (peer_k < peer.size()) {
        if (peer[peer_k].pure) {
          t.delta += peer_k > 0 ? peer[peer_k - 1].delta : 0;
        } else {
          t.delta += peer[peer_k].g + peer[peer_k].delta - 1;
        }
      }
      merged.push_back(t);
      ++k;
    }
    tuples_ = std::move(merged);
    n_ += other.n_;
    Compress();
  }

  int64_t count() const { return n_ + static_cast<int64_t>(buffer_.size()); }
  double eps() const { return eps_; }

  double QueryRank(int64_t rank) {
    Flush();
    if (tuples_.empty()) return 0.0;
    const int64_t r1 = std::clamp<int64_t>(rank, 0, n_ - 1) + 1;
    if (r1 <= 1) return tuples_.front().v;
    if (r1 >= n_) return tuples_.back().v;
    const double allowed = eps_ * static_cast<double>(n_);
    int64_t rmin = 0;
    double prev = tuples_[0].v;
    for (const Tuple& t : tuples_) {
      rmin += t.g;
      const int64_t rmax = rmin + t.delta;
      if (t.pure && r1 > rmin - t.g + t.delta && r1 <= rmin) return t.v;
      if (static_cast<double>(rmax) > static_cast<double>(r1) + allowed) {
        return prev;
      }
      prev = t.v;
    }
    return tuples_.back().v;
  }

  /// Same layout as QuantileSketch::SerializeTo.
  void SerializeTo(util::ByteWriter* out) {
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

 private:
  struct Tuple {
    double v = 0.0;
    int64_t g = 0;
    int64_t delta = 0;
    bool pure = true;
  };

  int64_t GapBudget(int64_t n) const {
    return std::max<int64_t>(
        1, static_cast<int64_t>(2.0 * eps_ * static_cast<double>(n)));
  }

  void Flush() {
    if (buffer_.empty()) return;
    std::sort(buffer_.begin(), buffer_.end());
    std::vector<Tuple> merged;
    size_t i = 0, j = 0;
    while (i < tuples_.size() || j < buffer_.size()) {
      if (i < tuples_.size() &&
          (j >= buffer_.size() || tuples_[i].v <= buffer_[j])) {
        merged.push_back(tuples_[i]);
        ++i;
      } else {
        Tuple t;
        t.v = buffer_[j];
        t.g = 1;
        if (i >= tuples_.size()) {
          t.delta = 0;
        } else if (tuples_[i].pure) {
          t.delta = merged.empty() ? 0 : merged.back().delta;
        } else {
          t.delta = tuples_[i].g + tuples_[i].delta - 1;
        }
        if (merged.empty()) t.delta = 0;
        merged.push_back(t);
        ++j;
      }
    }
    n_ += static_cast<int64_t>(buffer_.size());
    buffer_.clear();
    tuples_ = std::move(merged);
  }

  void Compress() {
    if (tuples_.size() < 3) return;
    const int64_t budget = GapBudget(n_);
    std::vector<Tuple> out;
    out.push_back(tuples_[0]);
    Tuple pending = tuples_[1];
    for (size_t i = 2; i < tuples_.size(); ++i) {
      Tuple next = tuples_[i];
      if (pending.g + next.g + next.delta <= budget) {
        next.pure = next.pure && pending.pure && pending.v == next.v;
        next.g += pending.g;
        pending = next;
      } else {
        out.push_back(pending);
        pending = next;
      }
    }
    out.push_back(pending);
    tuples_ = std::move(out);
  }

  double eps_;
  int64_t n_ = 0;
  std::vector<Tuple> tuples_;
  std::vector<double> buffer_;
  size_t buffer_cap_;
};

/// The per-column summary of the sketch pass: exact (value, count) pairs up
/// to the cap, spilled pair by pair into the sketch on overflow.
struct ColumnSummary {
  Sketch sketch;
  std::vector<double> distinct;
  std::vector<int64_t> count;
  bool overflow = false;

  explicit ColumnSummary(double eps) : sketch(eps) {}

  void Spill() {
    for (size_t i = 0; i < distinct.size(); ++i) {
      sketch.AddWeighted(distinct[i], count[i]);
    }
    distinct.clear();
    count.clear();
    overflow = true;
  }

  void AddValue(double v, int cap) {
    if (overflow) {
      sketch.Add(v);
      return;
    }
    const auto it = std::lower_bound(distinct.begin(), distinct.end(), v);
    if (it != distinct.end() && *it == v) {
      ++count[static_cast<size_t>(it - distinct.begin())];
      return;
    }
    if (static_cast<int>(distinct.size()) >= cap) {
      Spill();
      sketch.Add(v);
      return;
    }
    count.insert(count.begin() + (it - distinct.begin()), 1);
    distinct.insert(it, v);
  }

  void MergeFrom(const ColumnSummary& other, int cap) {
    if (!overflow && !other.overflow) {
      std::vector<double> mv;
      std::vector<int64_t> mc;
      size_t i = 0, j = 0;
      while (i < distinct.size() || j < other.distinct.size()) {
        if (j >= other.distinct.size() ||
            (i < distinct.size() && distinct[i] < other.distinct[j])) {
          mv.push_back(distinct[i]);
          mc.push_back(count[i]);
          ++i;
        } else if (i >= distinct.size() || other.distinct[j] < distinct[i]) {
          mv.push_back(other.distinct[j]);
          mc.push_back(other.count[j]);
          ++j;
        } else {
          mv.push_back(distinct[i]);
          mc.push_back(count[i] + other.count[j]);
          ++i;
          ++j;
        }
      }
      distinct = std::move(mv);
      count = std::move(mc);
      if (static_cast<int>(distinct.size()) > cap) Spill();
      return;
    }
    if (!overflow) Spill();
    if (other.overflow) {
      sketch.Merge(other.sketch);
    } else {
      for (size_t k = 0; k < other.distinct.size(); ++k) {
        sketch.AddWeighted(other.distinct[k], other.count[k]);
      }
    }
  }

  /// Same layout as ColumnSketch::SerializeTo.
  void SerializeTo(util::ByteWriter* out) {
    out->U8(overflow ? 1 : 0);
    if (overflow) {
      sketch.SerializeTo(out);
      return;
    }
    out->F64(sketch.eps());
    out->U64(static_cast<uint64_t>(distinct.size()));
    for (double v : distinct) out->F64(v);
    for (int64_t c : count) out->U64(static_cast<uint64_t>(c));
  }

  /// Bin upper bounds, as StreamedBinUpperBounds derives them.
  std::vector<double> UpperBounds(int64_t n, int cap) {
    if (!overflow) return distinct;
    std::vector<double> ub;
    for (int b = 1; b < cap; ++b) {
      const double v = sketch.QueryRank(static_cast<int64_t>(b) * n / cap);
      if (ub.empty() || v > ub.back()) ub.push_back(v);
    }
    ub.push_back(std::numeric_limits<double>::infinity());
    return ub;
  }
};

/// The raw-bin code as a whole-array lower_bound over the upper bounds.
inline uint8_t ReferenceCode(const std::vector<double>& upper, double v) {
  size_t b = static_cast<size_t>(
      std::lower_bound(upper.begin(), upper.end(), v) - upper.begin());
  if (b == upper.size()) --b;
  return static_cast<uint8_t>(b);
}

}  // namespace reds::reference

#endif  // REDS_TESTS_REFERENCE_SKETCH_H_
