// Stage selection and functional-role placement (§3.2).
//
// Given the current membership, the planner decides which of the three
// AgileML stages to run and maps every partition to a serving node (a
// ParamServ in stage 1, an ActivePS in stages 2/3) and, in stages 2/3, to
// a BackupPS on a reliable node. It prefers keeping partitions where they
// already are, so membership changes trigger the minimum state movement.
#ifndef SRC_AGILEML_ROLES_H_
#define SRC_AGILEML_ROLES_H_

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/agileml/cluster.h"
#include "src/common/types.h"

namespace proteus {

enum class Stage : int {
  kStage1 = 1,  // ParamServs only on reliable machines.
  kStage2 = 2,  // ActivePSs on transient, BackupPSs on reliable.
  kStage3 = 3,  // Stage 2 minus workers on reliable machines.
};

const char* StageName(Stage stage);

struct RoleAssignment {
  Stage stage = Stage::kStage1;
  // Partition -> node currently serving it to workers.
  std::map<PartitionId, NodeId> server;
  // Partition -> reliable node holding its hot backup (stages 2/3).
  std::map<PartitionId, NodeId> backup;
  std::set<NodeId> worker_nodes;
  std::set<NodeId> active_ps_nodes;  // Empty in stage 1.

  bool UsesBackups() const { return stage != Stage::kStage1; }
  std::vector<PartitionId> PartitionsServedBy(NodeId node) const;
  // Dense partition -> server lookup for hot-path accounting (index p,
  // kInvalidNode where unassigned). O(1) per query vs the map's O(log n).
  std::vector<NodeId> ServerByPartition(int num_partitions) const;
};

struct RolePlannerConfig {
  // Benchmarks pin the stage to compare modalities (Figs. 11-14).
  std::optional<Stage> forced_stage;
  // Benchmarks also pin the ActivePS count (Fig. 12 sweeps 16/32/48).
  std::optional<int> forced_active_ps_count;
};

class RolePlanner {
 public:
  explicit RolePlanner(RolePlannerConfig config) : config_(config) {}

  Stage PickStage(const TierCounts& counts) const;

  // Plans roles for the given membership. `previous` (may be null) is
  // used for placement stability. num_partitions is the fixed global N.
  RoleAssignment Plan(const std::vector<NodeInfo>& nodes, int num_partitions,
                      const RoleAssignment* previous) const;

  const RolePlannerConfig& config() const { return config_; }
  void set_forced_stage(std::optional<Stage> stage) { config_.forced_stage = stage; }

 private:
  RolePlannerConfig config_;
};

}  // namespace proteus

#endif  // SRC_AGILEML_ROLES_H_
