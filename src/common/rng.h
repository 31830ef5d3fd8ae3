// Deterministic pseudo-random number generation for the whole library.
//
// Everything in netfm that needs randomness (traffic generation, weight
// init, masking, data shuffles) takes an explicit Rng&, so every experiment
// is reproducible from a single seed. The generator is xoshiro256** seeded
// via splitmix64 — fast, high quality, and stable across platforms (unlike
// std::mt19937 distributions, whose results are implementation-defined).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace netfm {

/// xoshiro256** generator with explicit, portable sampling helpers.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit lanes from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Raw 64 uniform bits (UniformRandomBitGenerator interface).
  std::uint64_t operator()() noexcept { return next(); }
  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Next raw 64-bit value. Inline: dropout draws one per element.
  std::uint64_t next() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0. Unbiased
  /// (Lemire's multiply-shift with rejection).
  std::uint64_t uniform(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi) noexcept;

  /// Standard normal via Box-Muller (no cached spare: stateless & portable).
  double normal() noexcept;

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Exponential with rate lambda (> 0); mean is 1/lambda.
  double exponential(double lambda) noexcept;

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64 to stay O(1)).
  std::uint64_t poisson(double mean) noexcept;

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  /// Index in [0, weights.size()) drawn proportionally to `weights`
  /// (non-negative, not all zero).
  std::size_t weighted(std::span<const double> weights) noexcept;

  /// Zipf-distributed rank in [0, n) with exponent s (s=1 is classic Zipf).
  /// Uses an inverted-CDF table owned by the caller via ZipfTable for hot
  /// paths; this convenience overload rebuilds the tail sum each call.
  std::size_t zipf(std::size_t n, double s) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[uniform(i)]);
    }
  }

  /// Uniformly chosen element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) noexcept {
    return items[uniform(items.size())];
  }

  /// Derives an independent child generator (stable stream splitting).
  Rng fork() noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
};

/// Precomputed Zipf sampler: builds the CDF once, samples in O(log n).
class ZipfTable {
 public:
  /// n >= 1 ranks, exponent s >= 0 (s=0 degenerates to uniform).
  ZipfTable(std::size_t n, double s);

  /// Rank in [0, n) with probability proportional to 1/(rank+1)^s.
  std::size_t sample(Rng& rng) const noexcept;

  std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace netfm
