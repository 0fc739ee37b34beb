// Shared presorted split-search utilities for the tree learners. When a
// node splits, every per-feature value-sorted index array must be
// partitioned stably by the left/right membership mask so each child's
// segment stays value-sorted; and every node keeps the best of its
// candidate features' splits. CART works on position arrays, GBT on row-id
// arrays; both loops are identical.
#ifndef REDS_ML_ORDER_PARTITION_H_
#define REDS_ML_ORDER_PARTITION_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace reds::ml {

/// Stably partitions segment [begin, end) of every array in `orders` so
/// entries with goes_left[entry] != 0 precede the rest, preserving relative
/// order on both sides. `scratch` must hold at least end - begin ints.
inline void StablePartitionOrders(std::vector<std::vector<int>>* orders,
                                  int begin, int end,
                                  const std::vector<uint8_t>& goes_left,
                                  std::vector<int>* scratch) {
  for (std::vector<int>& ord : *orders) {
    int write = begin;
    int spill = 0;
    for (int i = begin; i < end; ++i) {
      const int entry = ord[static_cast<size_t>(i)];
      if (goes_left[static_cast<size_t>(entry)]) {
        ord[static_cast<size_t>(write++)] = entry;
      } else {
        (*scratch)[static_cast<size_t>(spill++)] = entry;
      }
    }
    std::copy(scratch->begin(), scratch->begin() + spill, ord.begin() + write);
  }
}

/// Runs search(fi) for fi in [0, num_candidates) and keeps the first
/// candidate with the highest gain (strict `gain >`, in candidate order).
/// Candidate needs `int feature` (< 0 = none) and `double gain` members.
template <typename Candidate, typename SearchFn>
Candidate BestSplitOverFeatures(size_t num_candidates,
                                const SearchFn& search) {
  Candidate best;
  for (size_t fi = 0; fi < num_candidates; ++fi) {
    const Candidate cand = search(fi);
    if (cand.feature >= 0 && cand.gain > best.gain) best = cand;
  }
  return best;
}

}  // namespace reds::ml

#endif  // REDS_ML_ORDER_PARTITION_H_
