// Fairness measure for the multi-tenant evaluation axes (after the
// CS525 "Fair Shares" study: utilization/Pareto efficiency vs short- and
// long-term fairness under greedy users).
#ifndef SRC_CLUSTER_FAIRNESS_H_
#define SRC_CLUSTER_FAIRNESS_H_

#include <vector>

namespace proteus {
namespace cluster {

// Jain's fairness index: (sum x)^2 / (n * sum x^2). 1.0 = perfectly
// equal; 1/n = one claimant has everything. Empty or all-zero inputs
// return 1.0 (nothing is unfairly divided).
double JainIndex(const std::vector<double>& values);

}  // namespace cluster
}  // namespace proteus

#endif  // SRC_CLUSTER_FAIRNESS_H_
