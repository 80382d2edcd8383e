// Deterministic random-number helper. Every stochastic component in the
// codebase takes an explicit Rng (or a seed) so simulations are reproducible.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <vector>

namespace proteus {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) : engine_(seed) {}

  // Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  double Normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  // Exponential with the given mean (not rate).
  double ExponentialMean(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  bool Bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  // Zipf-distributed integer in [0, n). Uses rejection-inversion
  // (Hörmann & Derflinger), exact and O(1) amortized.
  std::int64_t Zipf(std::int64_t n, double exponent);

  // Samples an index proportionally to the (non-negative) weights: one
  // Uniform(0, total) draw, then a subtract-scan in index order. `total`,
  // when given, must be the weights' serial sum in index order (a kernel
  // that already walked the weights can fold it in); otherwise it is
  // summed here.
  std::size_t Categorical(std::span<const double> weights,
                          std::optional<double> total = std::nullopt);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(UniformInt(0, static_cast<std::int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

  // Derives an independent child generator; useful for giving each worker
  // thread its own stream.
  Rng Fork() { return Rng(engine_() ^ 0xD1B54A32D192ED03ULL); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace proteus

#endif  // SRC_COMMON_RNG_H_
