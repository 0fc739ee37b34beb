#include "util/rng.h"

#include <cassert>
#include <cmath>
#include <numeric>

namespace reds {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t DeriveSeed(uint64_t parent, uint64_t stream) {
  uint64_t state = parent ^ (0x6a09e667f3bcc909ULL + stream * 0x9e3779b97f4a7c15ULL);
  SplitMix64(&state);
  return SplitMix64(&state);
}

Rng::Rng(uint64_t seed) {
  uint64_t state = seed;
  for (auto& s : s_) s = SplitMix64(&state);
}


double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u, v, s;
  do {
    u = Uniform(-1.0, 1.0);
    v = Uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

double Rng::LogitNormal(double mu, double sigma) {
  const double z = Normal(mu, sigma);
  return 1.0 / (1.0 + std::exp(-z));
}

std::vector<int> Rng::BootstrapIndices(int n) {
  std::vector<int> idx(static_cast<size_t>(n));
  for (auto& i : idx) i = static_cast<int>(UniformInt(static_cast<uint64_t>(n)));
  return idx;
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  assert(k >= 0 && k <= n);
  std::vector<int> idx(static_cast<size_t>(n));
  std::iota(idx.begin(), idx.end(), 0);
  // Partial Fisher-Yates: the first k slots are the sample.
  for (int i = 0; i < k; ++i) {
    int j = i + static_cast<int>(UniformInt(static_cast<uint64_t>(n - i)));
    std::swap(idx[static_cast<size_t>(i)], idx[static_cast<size_t>(j)]);
  }
  idx.resize(static_cast<size_t>(k));
  return idx;
}

}  // namespace reds
