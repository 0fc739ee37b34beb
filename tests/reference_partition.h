// Test-only oracle for the presorted tree learners' order partition: one
// std::stable_partition per order array. The library's
// StablePartitionOrders (src/ml/order_partition.h) writes every entry to
// both cursors and must produce the same arrays byte for byte.
#ifndef REDS_TESTS_REFERENCE_PARTITION_H_
#define REDS_TESTS_REFERENCE_PARTITION_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace reds::reference {

/// Stably moves the entries of segment [begin, end) of every array whose
/// goes_left flag is set ahead of the rest.
inline void StablePartitionOrders(std::vector<std::vector<int>>* orders,
                                  int begin, int end,
                                  const std::vector<uint8_t>& goes_left) {
  for (std::vector<int>& ord : *orders) {
    std::stable_partition(ord.begin() + begin, ord.begin() + end,
                          [&](int entry) {
                            return goes_left[static_cast<size_t>(entry)] != 0;
                          });
  }
}

}  // namespace reds::reference

#endif  // REDS_TESTS_REFERENCE_PARTITION_H_
