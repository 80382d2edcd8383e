#include "src/common/rng.h"

#include <cmath>

#include "src/common/logging.h"

namespace proteus {

namespace {
double SerialSum(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    total += w;
  }
  return total;
}
}  // namespace

std::int64_t Rng::Zipf(std::int64_t n, double exponent) {
  PROTEUS_CHECK_GT(n, 0);
  PROTEUS_CHECK_GT(exponent, 0.0);
  if (n == 1) {
    return 0;
  }
  // Rejection-inversion sampling (Hörmann & Derflinger 1996) for the Zipf
  // distribution on {1..n}; returns the value minus one (zero-based index).
  const double s = exponent;
  auto h = [s](double x) {
    // H(x) = integral of t^-s dt (antiderivative, up to a constant).
    if (s == 1.0) {
      return std::log(x);
    }
    return (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
  };
  auto h_inv = [s](double y) {
    if (s == 1.0) {
      return std::exp(y);
    }
    return std::pow(1.0 + y * (1.0 - s), 1.0 / (1.0 - s));
  };
  const double h_half = h(1.5);
  const double h_n = h(static_cast<double>(n) + 0.5);
  const double scale = h_half - 1.0;  // h(1.5) - p(1), where p(1) = 1^-s = 1.
  for (;;) {
    const double u = scale + Uniform() * (h_n - scale);
    const double x = h_inv(u);
    auto k = static_cast<std::int64_t>(x + 0.5);
    if (k < 1) {
      k = 1;
    } else if (k > n) {
      k = n;
    }
    // Accept if u >= H(k + 1/2) - k^-s, i.e. u falls under the histogram bar.
    if (u >= h(static_cast<double>(k) + 0.5) - std::pow(static_cast<double>(k), -s)) {
      return k - 1;
    }
  }
}

std::size_t Rng::Categorical(std::span<const double> weights, std::optional<double> total) {
  PROTEUS_CHECK(!weights.empty());
  const double sum = total.has_value() ? *total : SerialSum(weights);
  PROTEUS_DCHECK(sum == SerialSum(weights)) << "precomputed total is not the serial sum";
  PROTEUS_CHECK_GT(sum, 0.0);
  double target = Uniform(0.0, sum);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target <= 0.0) {
      return i;
    }
  }
  return weights.size() - 1;
}

}  // namespace proteus
