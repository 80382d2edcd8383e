#include "src/chaos/crash_restart.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "src/chaos/scenario.h"
#include "src/chaos/state_digest.h"
#include "src/common/logging.h"

namespace proteus {

namespace {

class CrashRestartDriver {
 public:
  CrashRestartDriver(MLApp* app, const CrashRestartConfig& config,
                     obs::Tracer* tracer, obs::MetricsRegistry* metrics)
      : app_(app), config_(config) {
    obs_.SetTracer(tracer);
    obs_.SetMetrics(metrics);
    PROTEUS_CHECK(app_ != nullptr);
    PROTEUS_CHECK_GE(config_.initial_reliable, 2)
        << "crash scenarios need a reliable survivor";
    PROTEUS_CHECK_GE(config_.horizon, 2);
    PROTEUS_CHECK_GE(config_.crash_at, 1);
    PROTEUS_CHECK_LT(config_.crash_at, config_.horizon);

    runtime_ = std::make_unique<AgileMLRuntime>(app_, config_.agileml, StartNodes());
    auditor_ = std::make_unique<ConsistencyAuditor>(runtime_.get());
    store_ = std::make_unique<CheckpointStore>(
        &device_, CheckpointStoreConfig{config_.durable_retain});
    recovery_ = std::make_unique<RecoveryManager>(
        runtime_.get(), store_.get(),
        RecoveryManagerConfig{config_.checkpoint_every, /*scrub_every=*/0});
    AttachObservability();
    // Start-up insurance, as in production: a committed durable epoch
    // exists before the first clock runs.
    recovery_->ForceCheckpoint();
    RecordEpochDigest();
  }

  CrashRestartResult Run() {
    for (Clock boundary = 0; boundary < config_.horizon; ++boundary) {
      if (boundary == config_.crash_at) {
        Crash();
      }
      runtime_->RunClock();
      auditor_->ObserveClock();
      recovery_->OnClockBoundary();
      RecordEpochDigest();
      // The BackupPS copy equals the active state at the moment of the
      // last sync; that digest is the depth-1 rollback reference.
      if (runtime_->roles().UsesBackups() &&
          runtime_->clock() == runtime_->last_sync_clock()) {
        sync_digest_ = StateDigest(*runtime_);
        has_sync_digest_ = true;
      }
    }
    result_.final_clock = runtime_->clock();
    for (const AuditViolation& v : auditor_->violations()) {
      result_.violations.push_back(v);
    }
    return result_;
  }

 private:
  std::vector<NodeInfo> StartNodes() const {
    return InitialNodes(config_.initial_reliable, config_.initial_transient_allocations,
                        config_.nodes_per_allocation);
  }

  void AttachObservability() {
    runtime_->SetObservability(obs_.tracer(), obs_.metrics());
    auditor_->SetObservability(obs_.tracer(), obs_.metrics());
    recovery_->SetObservability(obs_.tracer(), obs_.metrics());
  }

  // Commits are keyed by epoch; remember the state digest at each commit
  // so a later durable restore can be checked byte for byte.
  void RecordEpochDigest() {
    const std::uint64_t epoch = store_->last_committed_epoch();
    if (epoch != 0 && epoch_digests_.find(epoch) == epoch_digests_.end()) {
      epoch_digests_[epoch] = StateDigest(*runtime_);
    }
  }

  void Crash() {
    switch (config_.scenario) {
      case CrashScenario::kBackupPromotion:
        CrashActiveTier();
        break;
      case CrashScenario::kActiveRebuild:
        CrashBackupHolder();
        break;
      case CrashScenario::kDurableRestore:
        CrashBothTiersAndRestart();
        break;
    }
  }

  // Every ActivePS host dies unwarned. The BackupPS copy is promoted;
  // the restored state must be the bytes of the last active->backup
  // sync, nothing newer and nothing older.
  void CrashActiveTier() {
    const RoleAssignment& roles = runtime_->roles();
    PROTEUS_CHECK(roles.UsesBackups())
        << "backup-promotion scenario needs stage 2/3 at the crash point";
    PROTEUS_CHECK(has_sync_digest_);
    std::set<NodeId> victims;
    for (const auto& [partition, owner] : roles.server) {
      victims.insert(owner);
    }
    result_.expected_digest = sync_digest_;
    const RecoveryOutcome outcome =
        recovery_->Recover({victims.begin(), victims.end()});
    FinishInProcessRecovery(outcome);
  }

  // One reliable node holding only BackupPS replicas dies. The active
  // copy never moved, so recovery must leave the state bit-for-bit where
  // it was immediately before the crash.
  void CrashBackupHolder() {
    const RoleAssignment& roles = runtime_->roles();
    PROTEUS_CHECK(roles.UsesBackups())
        << "active-rebuild scenario needs stage 2/3 at the crash point";
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
    PROTEUS_CHECK(victim != kInvalidNode)
        << "no pure-backup holder to kill at the crash point";
    result_.expected_digest = StateDigest(*runtime_);
    const RecoveryOutcome outcome = recovery_->Recover({victim});
    FinishInProcessRecovery(outcome);
  }

  void FinishInProcessRecovery(const RecoveryOutcome& outcome) {
    result_.depth = outcome.depth;
    result_.restored_clock = outcome.restored_clock;
    result_.lost_clocks = outcome.lost_clocks;
    result_.post_recovery_digest = StateDigest(*runtime_);
    result_.digest_match =
        result_.post_recovery_digest == result_.expected_digest;
  }

  // Both tiers die at once and the process goes with them: tear down the
  // runtime, auditor, store and recovery manager, then restart — a new
  // CheckpointStore reopens the surviving device (recovering its epoch
  // cursor from the manifests alone) and a fresh runtime restores the
  // newest valid epoch. Optionally the newest N epochs were corrupted:
  // restart must skip exactly those, and a scrub must find every
  // injected fault.
  void CrashBothTiersAndRestart() {
    std::vector<std::string> manifests;
    for (const std::string& name : device_.List()) {
      if (name.rfind("ck/ep/", 0) == 0 &&
          name.size() >= 9 && name.compare(name.size() - 9, 9, "/MANIFEST") == 0) {
        manifests.push_back(name);
      }
    }
    std::sort(manifests.begin(), manifests.end());  // Epoch order (zero-padded).
    const int corrupt = std::min<int>(config_.corrupt_newest_epochs,
                                      static_cast<int>(manifests.size()) - 1);
    for (int i = 0; i < corrupt; ++i) {
      const std::string& name = manifests[manifests.size() - 1 - static_cast<std::size_t>(i)];
      const auto bytes = device_.Read(name);
      PROTEUS_CHECK(bytes.has_value());
      PROTEUS_CHECK(device_.FlipBit(name, bytes->size() / 2, 3));
      ++result_.corrupt_frames_injected;
    }

    for (const AuditViolation& v : auditor_->violations()) {
      result_.violations.push_back(v);
    }
    recovery_.reset();
    auditor_.reset();
    runtime_.reset();
    store_.reset();

    // --- restart ---
    store_ = std::make_unique<CheckpointStore>(
        &device_, CheckpointStoreConfig{config_.durable_retain});
    const auto loaded = store_->ReadNewestValid();
    PROTEUS_CHECK(loaded.has_value()) << "no valid durable epoch to restart from";
    result_.depth = RecoveryDepth::kDurableRestore;
    result_.durable_epoch = loaded->epoch;
    result_.corrupt_epochs_skipped = loaded->corrupt_epochs_skipped;
    const auto it = epoch_digests_.find(loaded->epoch);
    PROTEUS_CHECK(it != epoch_digests_.end())
        << "restored epoch " << loaded->epoch << " was never committed by this run";
    result_.expected_digest = it->second;

    // The scrub must see every injected corruption — before new commits
    // garbage-collect the damaged epochs.
    const ScrubReport scrub = store_->Scrub();
    result_.scrub_corruptions_found = scrub.corrupt_objects.size();

    runtime_ = std::make_unique<AgileMLRuntime>(app_, config_.agileml, StartNodes());
    auditor_ = std::make_unique<ConsistencyAuditor>(runtime_.get());
    recovery_ = std::make_unique<RecoveryManager>(
        runtime_.get(), store_.get(),
        RecoveryManagerConfig{config_.checkpoint_every, /*scrub_every=*/0});
    AttachObservability();
    runtime_->InstallCheckpoint(loaded->Payload(), loaded->clock);
    result_.lost_clocks = runtime_->RestoreFromCheckpoint();
    result_.restored_clock = runtime_->clock();
    result_.post_recovery_digest = StateDigest(*runtime_);
    result_.digest_match =
        result_.post_recovery_digest == result_.expected_digest;
    // Re-arm insurance for the resumed run.
    recovery_->ForceCheckpoint();
    RecordEpochDigest();
  }

  MLApp* app_;
  CrashRestartConfig config_;
  // The sinks the driver re-attaches to every runtime it builds.
  obs::Emitter obs_;

  MemDurableDevice device_;
  std::unique_ptr<AgileMLRuntime> runtime_;
  std::unique_ptr<ConsistencyAuditor> auditor_;
  std::unique_ptr<CheckpointStore> store_;
  std::unique_ptr<RecoveryManager> recovery_;

  std::map<std::uint64_t, std::uint64_t> epoch_digests_;
  std::uint64_t sync_digest_ = 0;
  bool has_sync_digest_ = false;

  CrashRestartResult result_;
};

}  // namespace

const char* CrashScenarioName(CrashScenario scenario) {
  switch (scenario) {
    case CrashScenario::kBackupPromotion:
      return "backup-promotion";
    case CrashScenario::kActiveRebuild:
      return "active-rebuild";
    case CrashScenario::kDurableRestore:
      return "durable-restore";
  }
  return "?";
}

CrashRestartResult RunCrashRestart(MLApp* app, const CrashRestartConfig& config,
                                   obs::Tracer* tracer,
                                   obs::MetricsRegistry* metrics) {
  CrashRestartDriver driver(app, config, tracer, metrics);
  return driver.Run();
}

}  // namespace proteus
