#include "src/agileml/roles.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace proteus {

namespace {

// ActivePSs run on this fraction of transient nodes ("best performance
// when running ActivePSs on half of the resources", §3.3).
constexpr double kActivePsFraction = 0.5;
// Ratio thresholds from §3.3: stage 2 above 1:1, stage 3 above 15:1.
constexpr double kStage2Threshold = 1.0;
constexpr double kStage3Threshold = 15.0;

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kStage1:
      return "stage1";
    case Stage::kStage2:
      return "stage2";
    case Stage::kStage3:
      return "stage3";
  }
  return "?";
}

std::vector<PartitionId> RoleAssignment::PartitionsServedBy(NodeId node) const {
  std::vector<PartitionId> out;
  for (const auto& [part, owner] : server) {
    if (owner == node) {
      out.push_back(part);
    }
  }
  return out;
}

std::vector<NodeId> RoleAssignment::ServerByPartition(int num_partitions) const {
  std::vector<NodeId> out(static_cast<std::size_t>(num_partitions), kInvalidNode);
  for (const auto& [part, owner] : server) {
    if (part >= 0 && part < num_partitions) {
      out[static_cast<std::size_t>(part)] = owner;
    }
  }
  return out;
}

Stage RolePlanner::PickStage(const TierCounts& counts) const {
  if (config_.forced_stage.has_value()) {
    return *config_.forced_stage;
  }
  if (counts.transient == 0) {
    return Stage::kStage1;
  }
  const double ratio = counts.Ratio();
  if (ratio > kStage3Threshold) {
    return Stage::kStage3;
  }
  if (ratio > kStage2Threshold) {
    return Stage::kStage2;
  }
  return Stage::kStage1;
}

namespace {

// Distributes partitions over `pool`, keeping a partition on its current
// owner when that owner is in the pool, and balancing counts otherwise.
std::map<PartitionId, NodeId> PlacePartitions(int num_partitions,
                                              const std::vector<NodeId>& pool,
                                              const std::map<PartitionId, NodeId>* previous) {
  PROTEUS_CHECK(!pool.empty());
  std::map<PartitionId, NodeId> placement;
  std::map<NodeId, int> load;
  for (const NodeId n : pool) {
    load[n] = 0;
  }
  const int cap = (num_partitions + static_cast<int>(pool.size()) - 1) /
                  static_cast<int>(pool.size());
  std::vector<PartitionId> orphans;
  for (PartitionId p = 0; p < num_partitions; ++p) {
    NodeId keep = kInvalidNode;
    if (previous != nullptr) {
      auto it = previous->find(p);
      if (it != previous->end() && load.count(it->second) > 0 && load[it->second] < cap) {
        keep = it->second;
      }
    }
    if (keep != kInvalidNode) {
      placement[p] = keep;
      ++load[keep];
    } else {
      orphans.push_back(p);
    }
  }
  for (const PartitionId p : orphans) {
    // Least-loaded node, ties broken by id for determinism.
    NodeId best = pool.front();
    for (const NodeId n : pool) {
      if (load[n] < load[best]) {
        best = n;
      }
    }
    placement[p] = best;
    ++load[best];
  }
  return placement;
}

}  // namespace

RoleAssignment RolePlanner::Plan(const std::vector<NodeInfo>& nodes, int num_partitions,
                                 const RoleAssignment* previous) const {
  PROTEUS_CHECK(!nodes.empty());
  PROTEUS_CHECK_GT(num_partitions, 0);
  const TierCounts counts = CountTiers(nodes);
  RoleAssignment roles;
  roles.stage = PickStage(counts);
  if (roles.stage != Stage::kStage1 && counts.transient == 0) {
    // Cannot host ActivePSs without transient nodes; fall back.
    roles.stage = Stage::kStage1;
  }
  if (roles.stage == Stage::kStage1 && counts.reliable == 0) {
    PROTEUS_LOG(Fatal) << "stage 1 requires at least one reliable node";
  }

  // Serverless nodes are tracked separately: they are workers only.
  // Ultra-transient capacity vanishes with zero warning, so it can never
  // host an ActivePS (or any parameter-server state).
  std::vector<NodeId> reliable;
  std::vector<NodeId> transient;
  std::vector<NodeId> serverless;
  for (const auto& node : nodes) {
    (node.reliable() ? reliable : node.serverless() ? serverless : transient)
        .push_back(node.id);
  }

  if (roles.stage == Stage::kStage1) {
    // ParamServs sharded across all reliable nodes; workers everywhere.
    roles.server = PlacePartitions(num_partitions, reliable,
                                   previous != nullptr ? &previous->server : nullptr);
    for (const auto& node : nodes) {
      roles.worker_nodes.insert(node.id);
    }
    return roles;
  }

  // Stages 2/3: pick ActivePS hosts among transient nodes. Membership
  // list order is join order, so preferring earlier entries implements
  // "the longest running transient resources" (§3.3). Previous hosts are
  // kept for stability.
  int want_actives = config_.forced_active_ps_count.has_value()
                         ? *config_.forced_active_ps_count
                         : static_cast<int>(std::lround(kActivePsFraction *
                                                        static_cast<double>(counts.transient)));
  want_actives = std::clamp(want_actives, 1, counts.transient);
  want_actives = std::min(want_actives, num_partitions);

  std::vector<NodeId> actives;
  if (previous != nullptr) {
    for (const NodeId n : transient) {
      if (previous->active_ps_nodes.count(n) > 0 &&
          static_cast<int>(actives.size()) < want_actives) {
        actives.push_back(n);
      }
    }
  }
  for (const NodeId n : transient) {
    if (static_cast<int>(actives.size()) >= want_actives) {
      break;
    }
    if (std::find(actives.begin(), actives.end(), n) == actives.end()) {
      actives.push_back(n);
    }
  }
  roles.active_ps_nodes.insert(actives.begin(), actives.end());

  roles.server =
      PlacePartitions(num_partitions, actives, previous != nullptr ? &previous->server : nullptr);
  roles.backup = PlacePartitions(num_partitions, reliable,
                                 previous != nullptr ? &previous->backup : nullptr);

  for (const NodeId n : transient) {
    roles.worker_nodes.insert(n);
  }
  for (const NodeId n : serverless) {
    roles.worker_nodes.insert(n);
  }
  if (roles.stage == Stage::kStage2) {
    for (const NodeId n : reliable) {
      roles.worker_nodes.insert(n);
    }
  }
  return roles;
}

}  // namespace proteus
