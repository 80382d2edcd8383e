#include "src/cluster/fairness.h"

namespace proteus {
namespace cluster {

double JainIndex(const std::vector<double>& values) {
  if (values.empty()) {
    return 1.0;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq <= 0.0) {
    return 1.0;
  }
  return (sum * sum) / (static_cast<double>(values.size()) * sum_sq);
}

}  // namespace cluster
}  // namespace proteus
