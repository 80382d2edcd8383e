#include "src/chaos/scenario.h"

namespace proteus {

std::vector<NodeInfo> InitialNodes(int reliable, int transient_allocations,
                                   int nodes_per_allocation, int serverless_allocations,
                                   int serverless_per_allocation) {
  std::vector<NodeInfo> nodes;
  NodeId id = 0;
  for (int i = 0; i < reliable; ++i) {
    nodes.push_back({id++, Tier::kReliable, 8, kInvalidAllocation});
  }
  for (int a = 0; a < transient_allocations; ++a) {
    for (int i = 0; i < nodes_per_allocation; ++i) {
      nodes.push_back({id++, Tier::kTransient, 8, static_cast<AllocationId>(a)});
    }
  }
  for (int a = 0; a < serverless_allocations; ++a) {
    const auto alloc = static_cast<AllocationId>(transient_allocations + a);
    for (int i = 0; i < serverless_per_allocation; ++i) {
      nodes.push_back({id++, Tier::kServerless, 2, alloc});
    }
  }
  return nodes;
}

void ArmDetector(FailureDetectorConfig& detector) {
  if (!detector.enabled) {
    detector.enabled = true;
    detector.suspect_after = 1;
    detector.confirm_after = 3;
  }
}

}  // namespace proteus
