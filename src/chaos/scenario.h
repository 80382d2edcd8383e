// Setup shared by the chaos drivers (the harness, the scripted-recovery
// scenarios and the lossy link): the initial membership, the detector
// default, one generation of the runtime stack, and the orders the
// drivers pick victims in.
#ifndef SRC_CHAOS_SCENARIO_H_
#define SRC_CHAOS_SCENARIO_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/agileml/cluster.h"
#include "src/agileml/failure_detector.h"
#include "src/agileml/recovery_manager.h"
#include "src/agileml/roles.h"
#include "src/agileml/runtime.h"
#include "src/chaos/consistency_auditor.h"
#include "src/chaos/fault_injector.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/ledger.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/ps/checkpoint_store.h"

namespace proteus {

// Every chaos driver starts from the same spot capacity: this many
// reliable nodes, then this many spot allocations of this many
// transient nodes each.
inline constexpr int kInitialReliable = 2;
inline constexpr int kInitialTransientAllocations = 2;
inline constexpr int kNodesPerAllocation = 4;

// Initial membership, all incorporated at start-up (input data loads
// before training begins, like the paper's job start): the reliable
// nodes, then the spot allocations, then `serverless_allocations`
// allocations of `serverless_per_allocation` serverless nodes. Node ids
// and allocation ids count up from 0 in that order.
std::vector<NodeInfo> InitialNodes(int serverless_allocations = 0,
                                   int serverless_per_allocation = 0);

// Silent hangs, blackholes and zero-warning revocations are only
// observable through the heartbeat detector, so a driver that injects
// them arms it: suspect after 1 missed clock, confirm after 3. A config
// that already enables the detector keeps its own settings.
void ArmDetector(FailureDetectorConfig& detector);

// --- Victim pickers ---

// Ready nodes of `tier` in membership order, minus the nodes a fault
// has already silenced (they are not fresh victims).
std::vector<NodeId> ReadyUnsilenced(const AgileMLRuntime& runtime, Tier tier,
                                    const std::map<NodeId, FaultClass>& silenced = {});

// `nodes` with ActivePS hosts first: their loss is what forces a
// rollback. Ties keep input order.
std::vector<NodeId> ActivePsHostsFirst(const RoleAssignment& roles, std::vector<NodeId> nodes);

// `nodes` ranked by partitions held, most first: partitions served,
// plus partitions backed up when `count_backups`. Ties keep input order.
std::vector<NodeId> RankByPartitionsHeld(const RoleAssignment& roles, bool count_backups,
                                         std::vector<NodeId> nodes);

// The lowest-id node holding BackupPS state but serving no partition,
// or kInvalidNode when every backup holder also serves.
NodeId LowestPureBackupHolder(const RoleAssignment& roles);

// --- One generation of the chaos stack ---
//
// The runtime and its auditor, a versioned CheckpointStore over a
// simulated durable device the stack owns, and the RecoveryManager that
// drives both. Construction attaches the sinks and takes the start-up
// checkpoint, so a committed durable epoch exists before the first
// clock runs. The stack imposes no per-boundary order: each driver
// steps the runtime, auditor and recovery manager itself.
class ChaosStack {
 public:
  // `app` must outlive the stack.
  ChaosStack(MLApp* app, const AgileMLConfig& agileml, std::vector<NodeInfo> nodes,
             RecoveryManagerConfig recovery, int durable_retain,
             obs::Tracer* tracer = nullptr, obs::MetricsRegistry* metrics = nullptr);

  ChaosStack(const ChaosStack&) = delete;
  ChaosStack& operator=(const ChaosStack&) = delete;

  AgileMLRuntime& runtime() { return *runtime_; }
  const AgileMLRuntime& runtime() const { return *runtime_; }
  ConsistencyAuditor& auditor() { return *auditor_; }
  const ConsistencyAuditor& auditor() const { return *auditor_; }
  CheckpointStore& store() { return *store_; }
  const CheckpointStore& store() const { return *store_; }
  RecoveryManager& recovery() { return *recovery_; }
  const RecoveryManager& recovery() const { return *recovery_; }
  MemDurableDevice& device() { return device_; }

  // Re-attaches every component; a restart re-attaches the same sinks.
  void SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);
  void SetLedger(obs::EventLedger* ledger, obs::FlightRecorder* recorder);

  // What a restart found on the durable device.
  struct RestartReport {
    std::uint64_t epoch = 0;  // The newest valid epoch, now restored.
    int corrupt_epochs_skipped = 0;
    std::uint64_t scrub_corruptions_found = 0;
  };

  // Both tiers die and the process goes with them: tears down the
  // runtime, auditor, store and recovery manager, then rebuilds them over
  // the same device. The new store recovers its epoch cursor from the
  // manifests alone and is scrubbed before anything new commits; the
  // fresh runtime restores the newest valid epoch and takes its own
  // start-up checkpoint.
  RestartReport Restart();

  // Digest bookkeeping for byte-identity checks (StateDigest). Commits
  // are keyed by epoch: remembers the state digest at each new commit.
  void RecordEpochDigest();
  // The BackupPS copy equals the active state at the moment of the last
  // active->backup sync: remembers that digest (the rollback target).
  void RecordSyncDigest();
  std::optional<std::uint64_t> EpochDigest(std::uint64_t epoch) const;
  std::optional<std::uint64_t> sync_digest() const { return sync_digest_; }

 private:
  void BuildRuntime();

  MLApp* app_;
  AgileMLConfig agileml_;
  std::vector<NodeInfo> nodes_;
  RecoveryManagerConfig recovery_config_;
  int durable_retain_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::EventLedger* ledger_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;

  MemDurableDevice device_;
  std::unique_ptr<CheckpointStore> store_;
  std::unique_ptr<AgileMLRuntime> runtime_;
  std::unique_ptr<ConsistencyAuditor> auditor_;
  std::unique_ptr<RecoveryManager> recovery_;

  std::map<std::uint64_t, std::uint64_t> epoch_digests_;
  std::optional<std::uint64_t> sync_digest_;
};

}  // namespace proteus

#endif  // SRC_CHAOS_SCENARIO_H_
