#include "util/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace reds::util {
namespace {

std::atomic<int> g_level{-1};

int DetectLevel() {
  const char* env = std::getenv("REDS_SIMD");
  if (env != nullptr &&
      (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0)) {
    return static_cast<int>(SimdLevel::kScalar);
  }
  if (Avx2Available()) return static_cast<int>(SimdLevel::kAvx2);
  return static_cast<int>(SimdLevel::kScalar);
}

}  // namespace

bool Avx2Available() {
#if defined(REDS_HAVE_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

SimdLevel ActiveSimdLevel() {
  int level = g_level.load(std::memory_order_relaxed);
  if (level < 0) {
    level = DetectLevel();
    g_level.store(level, std::memory_order_relaxed);
  }
  return static_cast<SimdLevel>(level);
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel ForceSimdLevel(SimdLevel level) {
  int want = static_cast<int>(level);
  if (level == SimdLevel::kAvx2 && !Avx2Available()) {
    want = static_cast<int>(SimdLevel::kScalar);
  }
  g_level.store(want, std::memory_order_relaxed);
  return static_cast<SimdLevel>(want);
}

double GatherSumReference(const double* v, const int* ids, int n) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += v[ids[i]];
  return sum;
}

int MaskedCountBelowReference(const double* col, const unsigned char* mask,
                              const int* ids, int n, double bound,
                              bool strict) {
  int count = 0;
  if (strict) {
    for (int i = 0; i < n; ++i) {
      const int r = ids[i];
      if (col[r] < bound && mask[r] != 0) ++count;
    }
  } else {
    for (int i = 0; i < n; ++i) {
      const int r = ids[i];
      if (col[r] <= bound && mask[r] != 0) ++count;
    }
  }
  return count;
}

double MaskedPrefixSumReference(const double* y, const unsigned char* mask,
                                const int* ids, int n, int count) {
  double sum = 0.0;
  int taken = 0;
  for (int i = 0; i < n && taken < count; ++i) {
    const int r = ids[i];
    if (mask[r] == 0) continue;
    sum += y[r];
    ++taken;
  }
  return sum;
}

#if defined(REDS_HAVE_AVX2)
double GatherSumAvx2(const double* v, const int* ids, int n);
int MaskedCountBelowAvx2(const double* col, const unsigned char* mask,
                         const int* ids, int n, double bound, bool strict);
double MaskedPrefixSumAvx2(const double* y, const unsigned char* mask,
                           const int* ids, int n, int count);
#endif

double GatherSum(const double* v, const int* ids, int n) {
#if defined(REDS_HAVE_AVX2)
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    return GatherSumAvx2(v, ids, n);
  }
#endif
  return GatherSumReference(v, ids, n);
}

int MaskedCountBelow(const double* col, const unsigned char* mask,
                     const int* ids, int n, double bound, bool strict) {
#if defined(REDS_HAVE_AVX2)
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    return MaskedCountBelowAvx2(col, mask, ids, n, bound, strict);
  }
#endif
  return MaskedCountBelowReference(col, mask, ids, n, bound, strict);
}

double MaskedPrefixSum(const double* y, const unsigned char* mask,
                       const int* ids, int n, int count) {
#if defined(REDS_HAVE_AVX2)
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    return MaskedPrefixSumAvx2(y, mask, ids, n, count);
  }
#endif
  return MaskedPrefixSumReference(y, mask, ids, n, count);
}

double* AllocPackedDoubles(size_t n) {
  if (n == 0) n = 1;
  const size_t huge = size_t{2} << 20;
  // Byte counts that wrap (here or in the rounding below) are as
  // unsatisfiable as a failed allocation.
  if (n > (std::numeric_limits<size_t>::max() - huge) / sizeof(double)) {
    throw std::bad_alloc();
  }
  size_t bytes = n * sizeof(double);
  if (bytes >= huge / 2) {
    // Round to whole 2 MiB chunks so the region is hugepage-mappable.
    // Buffers from half a chunk up are rounded up too: a 1.6 MB gradient
    // table walked in random order pays ~400 TLB entries on 4K pages but
    // exactly one on a hugepage, and that dwarfs the slack memory.
    bytes = (bytes + huge - 1) & ~(huge - 1);
    void* p = std::aligned_alloc(huge, bytes);
    if (p != nullptr) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
      madvise(p, bytes, MADV_HUGEPAGE);
#endif
      return static_cast<double*>(p);
    }
    // Fall through to a plain allocation on exotic failure.
  }
  bytes = (n * sizeof(double) + 63) & ~size_t{63};
  void* p = std::aligned_alloc(64, bytes);
  if (p == nullptr) throw std::bad_alloc();
  return static_cast<double*>(p);
}

void FreePackedDoubles(double* p) { std::free(p); }

void PackedDoubleBuffer::Resize(size_t n) {
  if (n <= size_) return;
  FreePackedDoubles(data_);
  // Empty before allocating: a throw leaves a valid, empty buffer.
  data_ = nullptr;
  size_ = 0;
  data_ = AllocPackedDoubles(n);
  size_ = n;
}

}  // namespace reds::util
