// Start-up setup shared by the chaos drivers (the harness, crash/restart
// and tier-storm scenarios): the initial membership and the detector
// default.
#ifndef SRC_CHAOS_SCENARIO_H_
#define SRC_CHAOS_SCENARIO_H_

#include <vector>

#include "src/agileml/cluster.h"
#include "src/agileml/failure_detector.h"

namespace proteus {

// Initial membership, all incorporated at start-up (input data loads
// before training begins, like the paper's job start): `reliable`
// reliable nodes, then `transient_allocations` spot allocations of
// `nodes_per_allocation` transient nodes, then `serverless_allocations`
// allocations of `serverless_per_allocation` serverless nodes. Node ids
// and allocation ids count up from 0 in that order.
std::vector<NodeInfo> InitialNodes(int reliable, int transient_allocations,
                                   int nodes_per_allocation, int serverless_allocations = 0,
                                   int serverless_per_allocation = 0);

// Silent hangs, blackholes and zero-warning revocations are only
// observable through the heartbeat detector, so a driver that injects
// them arms it: suspect after 1 missed clock, confirm after 3. A config
// that already enables the detector keeps its own settings.
void ArmDetector(FailureDetectorConfig& detector);

}  // namespace proteus

#endif  // SRC_CHAOS_SCENARIO_H_
