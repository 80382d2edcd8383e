#include "src/chaos/scripted_recovery.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "src/chaos/scenario.h"
#include "src/chaos/state_digest.h"
#include "src/common/hash.h"
#include "src/common/logging.h"

namespace proteus {

namespace {

using enum ScriptedVictims;
using enum ReferenceDigest;
using enum DigestCheck;

constexpr ScenarioRow kScenarios[] = {
    {RecoveryScenario::kBackupPromotion, "backup-promotion", false, 0, kActivePsHosts, kLastSync,
     kAtOnce},
    {RecoveryScenario::kActiveRebuild, "active-rebuild", false, 0, kPureBackupHolder, kPreCrash,
     kAtOnce},
    {RecoveryScenario::kDurableRestore, "durable-restore", false, 0, kWholeProcess,
     kCommittedEpoch, kAtOnce},
    {RecoveryScenario::kServerlessWipe, "serverless-wipe", true, 0, kNone, kLastSync, kOnConfirm},
    {RecoveryScenario::kCrossTierSpot, "cross-tier-spot", true, 0, kSpotPsHosts, kLastSync,
     kOnConfirm},
    {RecoveryScenario::kBackupHolderOverlap, "backup-holder-overlap", true, 0, kPureBackupHolder,
     kPreCrash, kAtOnce},
    {RecoveryScenario::kFullWipe, "full-wipe", true, 1, kEveryStateHolder, kCommittedEpoch,
     kAtOnce},
};

// Serverless worker slots a storm row starts with, in one allocation.
constexpr int kServerlessNodes = 6;
// Retain enough epochs that corruption never exhausts the store.
constexpr int kDurableRetain = 8;
// The full wipe's replacement reliable node, clear of the initial ids.
// Its id seeds its worker RNG stream, so it is pinned.
constexpr NodeId kReplacementNode = 10000;

class ScriptedRecoveryDriver {
 public:
  ScriptedRecoveryDriver(MLApp* app, const ScriptedRecoveryConfig& config, obs::Tracer* tracer,
                         obs::MetricsRegistry* metrics)
      : config_(config), row_(ScenarioRowOf(config.scenario)) {
    PROTEUS_CHECK_GE(config_.fire_at, 1);
    PROTEUS_CHECK_LT(config_.fire_at, config_.horizon);
    if (row_.storm) {
      // The last boundaries are left for the detector to confirm the
      // storm (and, for the full wipe, for the hit one boundary later).
      PROTEUS_CHECK_LT(config_.fire_at + 3, config_.horizon);
      // Zero warning means only the heartbeat detector can notice the
      // storm: it is always armed here, as in production.
      ArmDetector(config_.agileml.detector);
      // The TierGuard audits exposure at every clock; give it a bound the
      // initial composition satisfies so any breach is a real violation.
      TierGuardConfig& guard = config_.agileml.tier_guard;
      if (!guard.enabled) {
        guard.enabled = true;
        guard.max_worker_fraction = 0.5;
        guard.max_unsynced_clocks_exposed = std::max(4, config_.agileml.backup_sync_every);
      }
    }
    result_.scenario = config_.scenario;
    stack_ = std::make_unique<ChaosStack>(
        app, config_.agileml, InitialNodes(row_.storm ? 1 : 0, kServerlessNodes),
        RecoveryManagerConfig{config_.checkpoint_every, /*scrub_every=*/0}, kDurableRetain,
        tracer, metrics);
    stack_->RecordEpochDigest();
  }

  ScriptedRecoveryResult Run() {
    for (Clock boundary = 0; boundary < config_.horizon; ++boundary) {
      if (row_.storm && boundary == config_.fire_at) {
        RevokeServerlessTier();
      }
      if (boundary == config_.fire_at + row_.fire_offset) {
        Fire();
      }
      const IterationReport report = stack_->runtime().RunClock();
      for (const NodeId id : report.confirmed_dead) {
        if (storm_victims_.count(id) > 0) {
          ++result_.confirmed_serverless;
        }
      }
      // A detector-confirmed loss rolls back to the last active->backup
      // sync at the end of the confirming clock; the digest is checked
      // at that exact instant, before anything else runs.
      if (awaiting_confirm_ && !report.confirmed_dead.empty()) {
        awaiting_confirm_ = false;
        result_.depth = RecoveryDepth::kBackupPromotion;
        result_.restored_clock = stack_->runtime().clock();
        CheckDigest();
      }
      stack_->auditor().ObserveClock();
      stack_->recovery().OnClockBoundary();
      stack_->RecordEpochDigest();
      stack_->RecordSyncDigest();
    }
    result_.lost_clocks = stack_->runtime().lost_clocks_total();
    result_.final_clock = stack_->runtime().clock();
    CollectViolations();
    return result_;
  }

 private:
  // Every ready serverless node is revoked in the same instant: data and
  // control plane dead at once, no notice of any kind. The nodes stay
  // members until the detector confirms them; no Evict() (warned drain)
  // is ever issued for them.
  void RevokeServerlessTier() {
    const std::vector<NodeId> victims = ReadyUnsilenced(stack_->runtime(), Tier::kServerless);
    PROTEUS_CHECK(!victims.empty()) << "storm fired with no ready serverless nodes";
    for (const NodeId id : victims) {
      stack_->runtime().SetNodeRevoked(id);
      storm_victims_.insert(id);
      ++result_.storm_victims;
    }
  }

  void Fire() {
    if (row_.reference == kLastSync) {
      PROTEUS_CHECK(stack_->sync_digest().has_value())
          << row_.name << " fired before the first active->backup sync";
      result_.expected_digest = *stack_->sync_digest();
    } else if (row_.reference == kPreCrash) {
      result_.expected_digest = StateDigest(stack_->runtime());
    }
    TakeVictims();
    if (row_.reference == kCommittedEpoch) {
      const auto digest = stack_->EpochDigest(result_.durable_epoch);
      PROTEUS_CHECK(digest.has_value())
          << "restored epoch " << result_.durable_epoch << " was never committed by this run";
      result_.expected_digest = *digest;
    }
    if (row_.check == kAtOnce) {
      CheckDigest();
    } else {
      awaiting_confirm_ = true;
    }
    if (row_.victims == kEveryStateHolder) {
      // The operator replaces one dead on-demand machine; it preloads and
      // rejoins like any addition. The spot and serverless tiers stay gone.
      stack_->runtime().AddNodes({{kReplacementNode, Tier::kReliable, 8, kInvalidAllocation}});
    }
  }

  void TakeVictims() {
    const RoleAssignment& roles = stack_->runtime().roles();
    switch (row_.victims) {
      case kNone:
        break;
      case kActivePsHosts: {
        PROTEUS_CHECK(roles.UsesBackups()) << row_.name << " needs stage 2/3 at the crash point";
        std::set<NodeId> victims;
        for (const auto& [partition, owner] : roles.server) {
          victims.insert(owner);
        }
        RecoverInProcess({victims.begin(), victims.end()});
        break;
      }
      case kPureBackupHolder: {
        PROTEUS_CHECK(roles.UsesBackups()) << row_.name << " needs stage 2/3 at the crash point";
        const NodeId victim = LowestPureBackupHolder(roles);
        PROTEUS_CHECK(victim != kInvalidNode) << "no pure-backup holder to kill at the crash point";
        RecoverInProcess({victim});
        break;
      }
      case kSpotPsHosts: {
        // A blackhole: heartbeats stop, no notice of any kind.
        AgileMLRuntime& runtime = stack_->runtime();
        const std::vector<NodeId> spot = RankByPartitionsHeld(
            roles, /*count_backups=*/false, ReadyUnsilenced(runtime, Tier::kTransient));
        const std::size_t count = std::min<std::size_t>(2, spot.size());
        for (std::size_t i = 0; i < count; ++i) {
          runtime.SetNodeSilent(spot[i], true);
          ++result_.spot_victims;
        }
        break;
      }
      case kWholeProcess:
        RestartFromDurableTier();  // Replaces the runtime `roles` belongs to.
        break;
      case kEveryStateHolder:
        WipeEveryStateHolder();
        break;
    }
  }

  void RecoverInProcess(const std::vector<NodeId>& victims) {
    const RecoveryOutcome outcome = stack_->recovery().Recover(victims);
    result_.depth = outcome.depth;
    result_.restored_clock = outcome.restored_clock;
  }

  // The newest N epochs are corrupted first (one bit flip in each
  // manifest): the restart must skip exactly those, and its scrub must
  // find every one.
  void RestartFromDurableTier() {
    MemDurableDevice& device = stack_->device();
    std::vector<std::string> manifests;
    for (const std::string& name : device.List()) {
      if (name.rfind("ck/ep/", 0) == 0 && name.size() >= 9 &&
          name.compare(name.size() - 9, 9, "/MANIFEST") == 0) {
        manifests.push_back(name);
      }
    }
    std::sort(manifests.begin(), manifests.end());  // Epoch order (zero-padded).
    const int corrupt =
        std::min<int>(config_.corrupt_newest_epochs, static_cast<int>(manifests.size()) - 1);
    for (int i = 0; i < corrupt; ++i) {
      const std::string& name = manifests[manifests.size() - 1 - static_cast<std::size_t>(i)];
      const auto bytes = device.Read(name);
      PROTEUS_CHECK(bytes.has_value());
      PROTEUS_CHECK(device.FlipBit(name, bytes->size() / 2, 3));
      ++result_.corrupt_frames_injected;
    }
    CollectViolations();
    const ChaosStack::RestartReport report = stack_->Restart();
    result_.depth = RecoveryDepth::kDurableRestore;
    result_.durable_epoch = report.epoch;
    result_.corrupt_epochs_skipped = report.corrupt_epochs_skipped;
    result_.scrub_corruptions_found = report.scrub_corruptions_found;
    result_.restored_clock = stack_->runtime().clock();
  }

  // The storm's second front: every spot node and the reliable nodes
  // holding the most active/backup state die together with the
  // still-unconfirmed serverless tier. The in-memory checkpoint lived on
  // the dead reliable machines, so recovery must come from the durable
  // store.
  void WipeEveryStateHolder() {
    AgileMLRuntime& runtime = stack_->runtime();
    std::vector<NodeId> reliable;
    std::vector<NodeId> victims;
    for (const NodeInfo& node : runtime.nodes()) {
      if (node.reliable()) {
        reliable.push_back(node.id);
      } else if (node.tier == Tier::kTransient) {
        victims.push_back(node.id);
      }
    }
    PROTEUS_CHECK_GE(reliable.size(), 2u) << "full-wipe scenario needs a reliable survivor";
    victims.insert(victims.end(), storm_victims_.begin(), storm_victims_.end());
    reliable = RankByPartitionsHeld(runtime.roles(), /*count_backups=*/true, reliable);
    victims.insert(victims.end(), reliable.begin(), reliable.end() - 1);
    RecoveryManager& recovery = stack_->recovery();
    PROTEUS_CHECK(recovery.Classify(victims) == RecoveryDepth::kDurableRestore)
        << "full wipe did not reach the durable tier";
    runtime.DropCheckpoint();
    const RecoveryOutcome outcome = recovery.Recover(victims);
    result_.depth = outcome.depth;
    result_.restored_clock = outcome.restored_clock;
    result_.durable_epoch = outcome.durable_epoch;
  }

  void CheckDigest() {
    result_.post_recovery_digest = StateDigest(stack_->runtime());
    result_.digest_match = result_.post_recovery_digest == result_.expected_digest;
  }

  void CollectViolations() {
    for (const AuditViolation& v : stack_->auditor().violations()) {
      result_.violations.push_back(v);
    }
  }

  ScriptedRecoveryConfig config_;
  const ScenarioRow& row_;
  std::unique_ptr<ChaosStack> stack_;
  bool awaiting_confirm_ = false;
  std::set<NodeId> storm_victims_;
  ScriptedRecoveryResult result_;
};

}  // namespace

std::span<const ScenarioRow> RecoveryScenarios() { return kScenarios; }

const ScenarioRow& ScenarioRowOf(RecoveryScenario scenario) {
  const auto index = static_cast<std::size_t>(scenario);
  PROTEUS_CHECK_LT(index, std::size(kScenarios));
  return kScenarios[index];
}

std::uint64_t ScriptedRecoveryResult::Digest() const {
  std::uint64_t h = kFnvOffsetBasis;
  h = Fnv1aU64(h, static_cast<std::uint64_t>(scenario));
  h = Fnv1aU64(h, static_cast<std::uint64_t>(depth));
  h = Fnv1aU64(h, expected_digest);
  h = Fnv1aU64(h, post_recovery_digest);
  h = Fnv1aU64(h, static_cast<std::uint64_t>(digest_match));
  h = Fnv1aU64(h, static_cast<std::uint64_t>(restored_clock));
  h = Fnv1aU64(h, static_cast<std::uint64_t>(lost_clocks));
  h = Fnv1aU64(h, durable_epoch);
  h = Fnv1aU64(h, static_cast<std::uint64_t>(corrupt_epochs_skipped));
  h = Fnv1aU64(h, static_cast<std::uint64_t>(corrupt_frames_injected));
  h = Fnv1aU64(h, scrub_corruptions_found);
  h = Fnv1aU64(h, static_cast<std::uint64_t>(storm_victims));
  h = Fnv1aU64(h, static_cast<std::uint64_t>(confirmed_serverless));
  h = Fnv1aU64(h, static_cast<std::uint64_t>(spot_victims));
  h = Fnv1aU64(h, static_cast<std::uint64_t>(final_clock));
  h = Fnv1aU64(h, static_cast<std::uint64_t>(violations.size()));
  return h;
}

ScriptedRecoveryResult RunScriptedRecovery(MLApp* app, const ScriptedRecoveryConfig& config,
                                           obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  ScriptedRecoveryDriver driver(app, config, tracer, metrics);
  return driver.Run();
}

}  // namespace proteus
