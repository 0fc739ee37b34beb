// Test-only BestInterval oracle: the original beam search, refining every
// beam box one dimension at a time through BestIntervalForDimension's
// full per-dimension rescan. The library's RunBi (permutation walks
// guarded by one violation-count pass per beam box) must reproduce its
// boxes and WRAcc bit for bit.
#ifndef REDS_TESTS_REFERENCE_BI_H_
#define REDS_TESTS_REFERENCE_BI_H_

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "core/best_interval.h"

namespace reds::reference {

inline BiResult RunBiReference(const Dataset& d, const BiConfig& config) {
  assert(d.num_rows() > 0);
  const int dims = d.num_cols();
  const int max_restricted =
      config.max_restricted > 0 ? std::min(config.max_restricted, dims) : dims;
  const auto box_key = [](const Box& b) {
    std::vector<double> key;
    key.reserve(static_cast<size_t>(2 * b.dim()));
    for (int j = 0; j < b.dim(); ++j) {
      key.push_back(b.lo(j));
      key.push_back(b.hi(j));
    }
    return key;
  };

  struct Scored {
    Box box;
    double wracc;
  };
  std::vector<Scored> beam;
  beam.push_back({Box::Unbounded(dims), BoxWRAcc(d, Box::Unbounded(dims))});

  for (int iter = 0; iter < config.max_iterations; ++iter) {
    std::vector<Scored> candidates = beam;
    std::vector<std::vector<double>> keys;
    for (const auto& s : candidates) keys.push_back(box_key(s.box));
    for (const auto& s : beam) {
      for (int j = 0; j < dims; ++j) {
        Box refined = BestIntervalForDimension(d, s.box, j);
        if (refined.NumRestricted() > max_restricted) continue;
        auto key = box_key(refined);
        if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
        keys.push_back(std::move(key));
        const double w = BoxWRAcc(d, refined);
        candidates.push_back({std::move(refined), w});
      }
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Scored& a, const Scored& b) {
                       return a.wracc > b.wracc;
                     });
    if (static_cast<int>(candidates.size()) > config.beam_size) {
      candidates.resize(static_cast<size_t>(config.beam_size));
    }
    // Fixed point: candidate set equals the current beam.
    bool same = candidates.size() == beam.size();
    for (size_t i = 0; same && i < beam.size(); ++i) {
      same = box_key(candidates[i].box) == box_key(beam[i].box);
    }
    beam = std::move(candidates);
    if (same) break;
  }

  BiResult result;
  result.box = beam.front().box;
  result.wracc = beam.front().wracc;
  return result;
}

}  // namespace reds::reference

#endif  // REDS_TESTS_REFERENCE_BI_H_
