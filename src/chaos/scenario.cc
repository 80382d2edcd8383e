#include "src/chaos/scenario.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/chaos/state_digest.h"
#include "src/common/logging.h"

namespace proteus {

std::vector<NodeInfo> InitialNodes(int serverless_allocations, int serverless_per_allocation) {
  std::vector<NodeInfo> nodes;
  NodeId id = 0;
  for (int i = 0; i < kInitialReliable; ++i) {
    nodes.push_back({id++, Tier::kReliable, 8, kInvalidAllocation});
  }
  for (int a = 0; a < kInitialTransientAllocations; ++a) {
    for (int i = 0; i < kNodesPerAllocation; ++i) {
      nodes.push_back({id++, Tier::kTransient, 8, static_cast<AllocationId>(a)});
    }
  }
  for (int a = 0; a < serverless_allocations; ++a) {
    const auto alloc = static_cast<AllocationId>(kInitialTransientAllocations + a);
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

std::vector<NodeId> ReadyUnsilenced(const AgileMLRuntime& runtime, Tier tier,
                                    const std::map<NodeId, FaultClass>& silenced) {
  std::vector<NodeId> out;
  for (const NodeInfo& node : runtime.ReadyNodes()) {
    if (node.tier == tier && silenced.count(node.id) == 0) {
      out.push_back(node.id);
    }
  }
  return out;
}

std::vector<NodeId> ActivePsHostsFirst(const RoleAssignment& roles, std::vector<NodeId> nodes) {
  const std::set<NodeId>& actives = roles.active_ps_nodes;
  std::stable_sort(nodes.begin(), nodes.end(), [&actives](NodeId a, NodeId b) {
    return actives.count(a) > actives.count(b);
  });
  return nodes;
}

std::vector<NodeId> RankByPartitionsHeld(const RoleAssignment& roles, bool count_backups,
                                         std::vector<NodeId> nodes) {
  std::map<NodeId, int> held;
  for (const auto& [partition, owner] : roles.server) {
    ++held[owner];
  }
  if (count_backups) {
    for (const auto& [partition, owner] : roles.backup) {
      ++held[owner];
    }
  }
  std::stable_sort(nodes.begin(), nodes.end(), [&held](NodeId a, NodeId b) {
    const auto it_a = held.find(a);
    const auto it_b = held.find(b);
    return (it_a == held.end() ? 0 : it_a->second) > (it_b == held.end() ? 0 : it_b->second);
  });
  return nodes;
}

NodeId LowestPureBackupHolder(const RoleAssignment& roles) {
  std::set<NodeId> servers;
  for (const auto& [partition, owner] : roles.server) {
    servers.insert(owner);
  }
  NodeId victim = kInvalidNode;
  for (const auto& [partition, owner] : roles.backup) {
    if (servers.count(owner) == 0 && (victim == kInvalidNode || owner < victim)) {
      victim = owner;
    }
  }
  return victim;
}

ChaosStack::ChaosStack(MLApp* app, const AgileMLConfig& agileml, std::vector<NodeInfo> nodes,
                       RecoveryManagerConfig recovery, int durable_retain,
                       obs::Tracer* tracer, obs::MetricsRegistry* metrics)
    : app_(app),
      agileml_(agileml),
      nodes_(std::move(nodes)),
      recovery_config_(recovery),
      durable_retain_(durable_retain),
      tracer_(tracer),
      metrics_(metrics) {
  PROTEUS_CHECK(app_ != nullptr);
  store_ = std::make_unique<CheckpointStore>(&device_, CheckpointStoreConfig{durable_retain_});
  BuildRuntime();
  recovery_->ForceCheckpoint();
}

void ChaosStack::BuildRuntime() {
  runtime_ = std::make_unique<AgileMLRuntime>(app_, agileml_, nodes_);
  auditor_ = std::make_unique<ConsistencyAuditor>(runtime_.get());
  recovery_ = std::make_unique<RecoveryManager>(runtime_.get(), store_.get(), recovery_config_);
  SetObservability(tracer_, metrics_);
  SetLedger(ledger_, recorder_);
}

void ChaosStack::SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
  runtime_->SetObservability(tracer, metrics);
  auditor_->SetObservability(tracer, metrics);
  recovery_->SetObservability(tracer, metrics);
}

void ChaosStack::SetLedger(obs::EventLedger* ledger, obs::FlightRecorder* recorder) {
  ledger_ = ledger;
  recorder_ = recorder;
  runtime_->SetLedger(ledger);
  auditor_->SetLedger(ledger, recorder);
  recovery_->SetLedger(ledger);
}

ChaosStack::RestartReport ChaosStack::Restart() {
  recovery_.reset();
  auditor_.reset();
  runtime_.reset();
  store_.reset();

  store_ = std::make_unique<CheckpointStore>(&device_, CheckpointStoreConfig{durable_retain_});
  const auto loaded = store_->ReadNewestValid();
  PROTEUS_CHECK(loaded.has_value()) << "no valid durable epoch to restart from";
  RestartReport report;
  report.epoch = loaded->epoch;
  report.corrupt_epochs_skipped = loaded->corrupt_epochs_skipped;
  // The scrub must see every corruption before new commits
  // garbage-collect the damaged epochs.
  report.scrub_corruptions_found = store_->Scrub().corrupt_objects.size();

  BuildRuntime();
  runtime_->InstallCheckpoint(loaded->Payload(), loaded->clock);
  runtime_->RestoreFromCheckpoint();
  recovery_->ForceCheckpoint();
  return report;
}

void ChaosStack::RecordEpochDigest() {
  const std::uint64_t epoch = store_->last_committed_epoch();
  if (epoch != 0 && epoch_digests_.find(epoch) == epoch_digests_.end()) {
    epoch_digests_[epoch] = StateDigest(*runtime_);
  }
}

void ChaosStack::RecordSyncDigest() {
  if (runtime_->roles().UsesBackups() && runtime_->clock() == runtime_->last_sync_clock()) {
    sync_digest_ = StateDigest(*runtime_);
  }
}

std::optional<std::uint64_t> ChaosStack::EpochDigest(std::uint64_t epoch) const {
  const auto it = epoch_digests_.find(epoch);
  if (it == epoch_digests_.end()) {
    return std::nullopt;
  }
  return it->second;
}

}  // namespace proteus
