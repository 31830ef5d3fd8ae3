#include "common/rng.h"

#include <cmath>
#include <numbers>

namespace netfm {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& lane : state_) lane = splitmix64(s);
}

std::uint64_t Rng::uniform(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless unbiased bounded sampling.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform(span));
}

double Rng::uniform01() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform_real(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

double Rng::normal() noexcept {
  // Box-Muller; guard against log(0).
  double u1 = uniform01();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform01();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::exponential(double lambda) noexcept {
  double u = uniform01();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / lambda;
}

std::uint64_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean > 64.0) {
    const double v = normal(mean, std::sqrt(mean));
    return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  double prod = uniform01();
  std::uint64_t k = 0;
  while (prod > limit) {
    ++k;
    prod *= uniform01();
  }
  return k;
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

std::size_t Rng::weighted(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += w > 0.0 ? w : 0.0;
  if (total <= 0.0) return 0;
  double target = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;
}

std::size_t Rng::zipf(std::size_t n, double s) noexcept {
  if (n <= 1) return 0;
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r)
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
  double target = uniform01() * total;
  for (std::size_t r = 0; r < n; ++r) {
    const double w = 1.0 / std::pow(static_cast<double>(r + 1), s);
    if (target < w) return r;
    target -= w;
  }
  return n - 1;
}

Rng Rng::fork() noexcept { return Rng{next() ^ 0xd1b54a32d192ed03ULL}; }

ZipfTable::ZipfTable(std::size_t n, double s) {
  cdf_.resize(n == 0 ? 1 : n);
  double acc = 0.0;
  for (std::size_t r = 0; r < cdf_.size(); ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

std::size_t ZipfTable::sample(Rng& rng) const noexcept {
  const double u = rng.uniform01();
  std::size_t lo = 0;
  std::size_t hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

}  // namespace netfm
