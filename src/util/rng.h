// Deterministic pseudo-random number generation (xoshiro256++ seeded through
// splitmix64). Every stochastic component of the library takes an explicit
// seed so experiments are bit-reproducible.
#ifndef REDS_UTIL_RNG_H_
#define REDS_UTIL_RNG_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace reds {

/// splitmix64 step; used to derive well-mixed child seeds from a master seed.
uint64_t SplitMix64(uint64_t* state);

/// Derives a child seed from a parent seed and a stream id. Used to give each
/// (experiment, function, repetition) its own independent RNG stream.
uint64_t DeriveSeed(uint64_t parent, uint64_t stream);

/// xoshiro256++ generator with convenience sampling methods. The per-draw
/// methods are defined inline: samplers draw one value per coordinate
/// (L x M uniforms per relabel pass), where a call per draw costs as much
/// as the draw itself.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double Uniform() {
    // 53 high-quality bits -> double in [0, 1).
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n) {
    assert(n > 0);
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = (0 - n) % n;
    for (;;) {
      const uint64_t r = Next();
      if (r >= threshold) return r % n;
    }
  }

  /// Standard normal deviate (polar Box-Muller).
  double Normal();

  /// Normal deviate with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// Logit-normal deviate: sigmoid(Normal(mu, sigma)); support (0, 1).
  double LogitNormal(double mu, double sigma);

  /// Fisher-Yates shuffle of v.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(UniformInt(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// n indices drawn with replacement from [0, n) (a bootstrap sample).
  std::vector<int> BootstrapIndices(int n);

  /// k distinct indices drawn without replacement from [0, n), in random
  /// order. Requires 0 <= k <= n.
  std::vector<int> SampleWithoutReplacement(int n, int k);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace reds

#endif  // REDS_UTIL_RNG_H_
