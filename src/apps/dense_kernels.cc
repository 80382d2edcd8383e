#include "src/apps/dense_kernels.h"

#include <algorithm>
#include <cmath>

namespace proteus {

double Dot(const float* a, const float* b, int n) {
  float acc[kLanes] = {};
  int d = 0;
  for (; d + kLanes <= n; d += kLanes) {
    for (int j = 0; j < kLanes; ++j) {
      acc[j] += a[d + j] * b[d + j];
    }
  }
  double sum = 0.0;
  for (; d < n; ++d) {
    sum += static_cast<double>(a[d]) * static_cast<double>(b[d]);
  }
  for (int j = 0; j < kLanes; ++j) {
    sum += static_cast<double>(acc[j]);
  }
  return sum;
}

void Axpy(float coeff, const float* x, float* g, int n) {
  int d = 0;
  for (; d + kLanes <= n; d += kLanes) {
    float xs[kLanes];
    float gs[kLanes];
    for (int j = 0; j < kLanes; ++j) {
      xs[j] = x[d + j];
      gs[j] = g[d + j];
    }
    for (int j = 0; j < kLanes; ++j) {
      g[d + j] = gs[j] + coeff * xs[j];
    }
  }
  for (; d < n; ++d) {
    g[d] += coeff * x[d];
  }
}

double GibbsConditional(const double* ndk, const float* nwk, const float* nk, double alpha,
                        double beta, double vbeta, double* prob, int n) {
  double total = 0.0;
  int k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    double d[kLanes];
    double w[kLanes];
    double t[kLanes];
    for (int j = 0; j < kLanes; ++j) {
      d[j] = ndk[k + j];
      w[j] = static_cast<double>(nwk[k + j]);
      t[j] = static_cast<double>(nk[k + j]);
    }
    double p[kLanes];
    for (int j = 0; j < kLanes; ++j) {
      p[j] = (std::max(0.0, d[j]) + alpha) * (std::max(0.0, w[j]) + beta) /
             (std::max(0.0, t[j]) + vbeta);
    }
    // The total stays one serial chain in index order.
    for (int j = 0; j < kLanes; ++j) {
      prob[k + j] = p[j];
      total += p[j];
    }
  }
  for (; k < n; ++k) {
    prob[k] = (std::max(0.0, ndk[k]) + alpha) *
              (std::max(0.0, static_cast<double>(nwk[k])) + beta) /
              (std::max(0.0, static_cast<double>(nk[k])) + vbeta);
    total += prob[k];
  }
  return total;
}

void SoftmaxInPlace(std::span<double> logits) {
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  double total = 0.0;
  for (double& l : logits) {
    l = std::exp(l - max_logit);
    total += l;
  }
  for (double& l : logits) {
    l /= total;
  }
}

}  // namespace proteus
