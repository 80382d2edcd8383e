#include "src/chaos/tier_storm.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "src/chaos/scenario.h"
#include "src/chaos/state_digest.h"
#include "src/common/hash.h"
#include "src/common/logging.h"

namespace proteus {

namespace {

class TierStormDriver {
 public:
  TierStormDriver(MLApp* app, const TierStormConfig& config,
                  obs::Tracer* tracer, obs::MetricsRegistry* metrics)
      : app_(app), config_(config) {
    PROTEUS_CHECK(app_ != nullptr);
    PROTEUS_CHECK_GE(config_.initial_reliable, 2)
        << "storm scenarios need a reliable survivor";
    PROTEUS_CHECK_GE(config_.initial_serverless, 1);
    PROTEUS_CHECK_GE(config_.storm_at, 1);
    // The last boundaries are left for the detector to confirm the storm
    // (and, for kFullWipe, for the cross-tier hit one boundary later).
    PROTEUS_CHECK_LT(config_.storm_at + 3, config_.horizon);

    // Zero warning means only the heartbeat detector can notice the
    // storm: it is always armed here, as in production.
    ArmDetector(config_.agileml.detector);
    // The TierGuard audits exposure at every clock; give it a bound the
    // initial composition satisfies so any breach is a real violation.
    if (!config_.agileml.tier_guard.enabled) {
      config_.agileml.tier_guard.enabled = true;
      config_.agileml.tier_guard.max_worker_fraction = 0.5;
      config_.agileml.tier_guard.max_unsynced_clocks_exposed =
          std::max(4, config_.agileml.backup_sync_every);
    }

    result_.scenario = config_.scenario;
    // The serverless tier: burstable worker-only slots in one allocation.
    runtime_ = std::make_unique<AgileMLRuntime>(
        app_, config_.agileml,
        InitialNodes(config_.initial_reliable, config_.initial_transient_allocations,
                     config_.nodes_per_allocation, 1, config_.initial_serverless));
    auditor_ = std::make_unique<ConsistencyAuditor>(runtime_.get());
    store_ = std::make_unique<CheckpointStore>(
        &device_, CheckpointStoreConfig{config_.durable_retain});
    recovery_ = std::make_unique<RecoveryManager>(
        runtime_.get(), store_.get(),
        RecoveryManagerConfig{config_.checkpoint_every, /*scrub_every=*/0});
    runtime_->SetObservability(tracer, metrics);
    auditor_->SetObservability(tracer, metrics);
    recovery_->SetObservability(tracer, metrics);
    // Start-up insurance, as in production: a committed durable epoch
    // exists before the first clock runs.
    recovery_->ForceCheckpoint();
    RecordEpochDigest();
  }

  TierStormResult Run() {
    for (Clock boundary = 0; boundary < config_.horizon; ++boundary) {
      if (boundary == config_.storm_at) {
        Storm();
      }
      if (config_.scenario == TierStormScenario::kFullWipe &&
          boundary == config_.storm_at + 1) {
        // The cross-tier hit lands one boundary later, while every
        // serverless revocation is still awaiting detector confirmation:
        // the storm is genuinely mid-round.
        FullWipe();
      }
      const IterationReport report = runtime_->RunClock();
      for (const NodeId id : report.confirmed_dead) {
        if (storm_victims_.count(id) > 0) {
          ++result_.confirmed_serverless;
        }
      }
      // Detector-confirmed storms roll back to the last active->backup
      // sync at the end of the confirming clock; the digest is checked
      // at that exact instant, before anything else runs.
      if (awaiting_confirm_ && !report.confirmed_dead.empty()) {
        awaiting_confirm_ = false;
        result_.depth = RecoveryDepth::kBackupPromotion;
        result_.post_recovery_digest = StateDigest(*runtime_);
        result_.digest_match =
            result_.post_recovery_digest == result_.expected_digest;
      }
      auditor_->ObserveClock();
      recovery_->OnClockBoundary();
      RecordEpochDigest();
      // The BackupPS copy equals the active state at the moment of the
      // last sync; that digest is the storm's rollback reference.
      if (runtime_->roles().UsesBackups() &&
          runtime_->clock() == runtime_->last_sync_clock()) {
        sync_digest_ = StateDigest(*runtime_);
        has_sync_digest_ = true;
      }
    }
    result_.lost_clocks = runtime_->lost_clocks_total();
    result_.final_clock = runtime_->clock();
    for (const AuditViolation& v : auditor_->violations()) {
      result_.violations.push_back(v);
    }
    return result_;
  }

 private:
  // Commits are keyed by epoch; remember the state digest at each commit
  // so a durable restore can be checked byte for byte.
  void RecordEpochDigest() {
    const std::uint64_t epoch = store_->last_committed_epoch();
    if (epoch != 0 && epoch_digests_.find(epoch) == epoch_digests_.end()) {
      epoch_digests_[epoch] = StateDigest(*runtime_);
    }
  }

  // Revokes every ready serverless node in the same instant — data and
  // control plane dead at once, no notice of any kind. The nodes stay in
  // the membership until the detector confirms them; no Evict() (warned
  // drain) is ever issued for them, and the runtime CHECK-fails if one
  // were.
  void RevokeServerlessTier() {
    std::vector<NodeId> victims;
    for (const NodeInfo& node : runtime_->nodes()) {
      if (node.serverless() && runtime_->IsReadyNode(node.id)) {
        victims.push_back(node.id);
      }
    }
    PROTEUS_CHECK(!victims.empty())
        << "storm fired with no ready serverless nodes";
    for (const NodeId id : victims) {
      runtime_->SetNodeRevoked(id);
      storm_victims_.insert(id);
      ++result_.storm_victims;
    }
  }

  void Storm() {
    switch (config_.scenario) {
      case TierStormScenario::kServerlessWipe: {
        PROTEUS_CHECK(has_sync_digest_)
            << "storm fired before the first active->backup sync";
        RevokeServerlessTier();
        result_.expected_digest = sync_digest_;
        awaiting_confirm_ = true;
        break;
      }
      case TierStormScenario::kCrossTierSpot: {
        PROTEUS_CHECK(has_sync_digest_)
            << "storm fired before the first active->backup sync";
        RevokeServerlessTier();
        // The storm crosses tiers: ActivePS-hosting spot nodes go
        // silently dark in the same instant (blackhole — heartbeats
        // stop, no notice). One detector batch confirms both tiers.
        const RoleAssignment& roles = runtime_->roles();
        std::vector<NodeId> spot;
        for (const NodeInfo& node : runtime_->ReadyNodes()) {
          if (node.tier == Tier::kTransient) {
            spot.push_back(node.id);
          }
        }
        std::stable_sort(spot.begin(), spot.end(),
                         [&roles](NodeId a, NodeId b) {
                           int held_a = 0;
                           int held_b = 0;
                           for (const auto& [partition, owner] : roles.server) {
                             held_a += owner == a;
                             held_b += owner == b;
                           }
                           return held_a > held_b;
                         });
        const std::size_t count = std::min<std::size_t>(2, spot.size());
        for (std::size_t i = 0; i < count; ++i) {
          runtime_->SetNodeSilent(spot[i], true);
          ++result_.spot_victims;
        }
        result_.expected_digest = sync_digest_;
        awaiting_confirm_ = true;
        break;
      }
      case TierStormScenario::kBackupHolderOverlap: {
        // The serverless wipe overlaps a reliable pure-backup holder
        // dying. The backup is rebuilt from the active copy (depth 2):
        // the active state never moves, so recovery must leave the
        // digest bit-for-bit where it was immediately before the crash —
        // even with every serverless revocation still unconfirmed.
        RevokeServerlessTier();
        const RoleAssignment& roles = runtime_->roles();
        PROTEUS_CHECK(roles.UsesBackups())
            << "backup-overlap scenario needs stage 2/3 at the storm point";
        std::set<NodeId> servers;
        for (const auto& [partition, owner] : roles.server) {
          servers.insert(owner);
        }
        NodeId victim = kInvalidNode;
        for (const auto& [partition, owner] : roles.backup) {
          if (servers.count(owner) == 0 &&
              (victim == kInvalidNode || owner < victim)) {
            victim = owner;
          }
        }
        PROTEUS_CHECK(victim != kInvalidNode)
            << "no pure-backup holder to kill at the storm point";
        result_.expected_digest = StateDigest(*runtime_);
        const RecoveryOutcome outcome = recovery_->Recover({victim});
        result_.depth = outcome.depth;
        result_.post_recovery_digest = StateDigest(*runtime_);
        result_.digest_match =
            result_.post_recovery_digest == result_.expected_digest;
        break;
      }
      case TierStormScenario::kFullWipe:
        // First hit: the whole serverless tier, zero warning. The
        // cross-tier event follows one boundary later (see Run()).
        RevokeServerlessTier();
        break;
    }
  }

  // The storm's second front: every spot node AND the reliable nodes
  // holding active/backup state die together with the still-unconfirmed
  // serverless tier. The in-memory checkpoint lived on the dead reliable
  // machines, so recovery must come from the durable store.
  void FullWipe() {
    std::vector<NodeId> reliable;
    std::vector<NodeId> victims;
    for (const NodeInfo& node : runtime_->nodes()) {
      if (node.reliable()) {
        reliable.push_back(node.id);
      } else if (node.tier == Tier::kTransient) {
        victims.push_back(node.id);
      }
    }
    PROTEUS_CHECK_GE(reliable.size(), 2u)
        << "full-wipe scenario needs a reliable survivor";
    // The pending serverless revocations are part of the same blast.
    victims.insert(victims.end(), storm_victims_.begin(), storm_victims_.end());
    // Reliable victims carrying the most solution state die first, so
    // the wipeout reaches the bottom of the escalation ladder.
    const RoleAssignment& roles = runtime_->roles();
    std::stable_sort(reliable.begin(), reliable.end(),
                     [&roles](NodeId a, NodeId b) {
                       int held_a = 0;
                       int held_b = 0;
                       for (const auto& [partition, owner] : roles.server) {
                         held_a += owner == a;
                         held_b += owner == b;
                       }
                       for (const auto& [partition, owner] : roles.backup) {
                         held_a += owner == a;
                         held_b += owner == b;
                       }
                       return held_a > held_b;
                     });
    victims.insert(victims.end(), reliable.begin(), reliable.end() - 1);
    PROTEUS_CHECK(recovery_->Classify(victims) == RecoveryDepth::kDurableRestore)
        << "full wipe did not reach the durable tier";
    runtime_->DropCheckpoint();
    const RecoveryOutcome outcome = recovery_->Recover(victims);
    result_.depth = outcome.depth;
    result_.durable_epoch = outcome.durable_epoch;
    const auto it = epoch_digests_.find(outcome.durable_epoch);
    PROTEUS_CHECK(it != epoch_digests_.end())
        << "restored epoch " << outcome.durable_epoch
        << " was never committed by this run";
    result_.expected_digest = it->second;
    result_.post_recovery_digest = StateDigest(*runtime_);
    result_.digest_match =
        result_.post_recovery_digest == result_.expected_digest;
    // The operator replaces one dead on-demand machine; it preloads and
    // rejoins like any addition. The spot and serverless tiers stay gone.
    runtime_->AddNodes(
        {{next_node_id_++, Tier::kReliable, 8, kInvalidAllocation}});
  }

  MLApp* app_;
  TierStormConfig config_;

  MemDurableDevice device_;
  std::unique_ptr<AgileMLRuntime> runtime_;
  std::unique_ptr<ConsistencyAuditor> auditor_;
  std::unique_ptr<CheckpointStore> store_;
  std::unique_ptr<RecoveryManager> recovery_;

  std::map<std::uint64_t, std::uint64_t> epoch_digests_;
  std::uint64_t sync_digest_ = 0;
  bool has_sync_digest_ = false;
  bool awaiting_confirm_ = false;
  std::set<NodeId> storm_victims_;
  NodeId next_node_id_ = 10000;  // Replacement ids, clear of the initial range.

  TierStormResult result_;
};

}  // namespace

const char* TierStormScenarioName(TierStormScenario scenario) {
  switch (scenario) {
    case TierStormScenario::kServerlessWipe:
      return "serverless-wipe";
    case TierStormScenario::kCrossTierSpot:
      return "cross-tier-spot";
    case TierStormScenario::kBackupHolderOverlap:
      return "backup-holder-overlap";
    case TierStormScenario::kFullWipe:
      return "full-wipe";
  }
  return "?";
}

std::uint64_t TierStormResult::Digest() const {
  std::uint64_t h = kFnvOffsetBasis;
  h = Fnv1aU64(h, static_cast<std::uint64_t>(scenario));
  h = Fnv1aU64(h, static_cast<std::uint64_t>(depth));
  h = Fnv1aU64(h, expected_digest);
  h = Fnv1aU64(h, post_recovery_digest);
  h = Fnv1aU64(h, static_cast<std::uint64_t>(digest_match));
  h = Fnv1aU64(h, static_cast<std::uint64_t>(storm_victims));
  h = Fnv1aU64(h, static_cast<std::uint64_t>(confirmed_serverless));
  h = Fnv1aU64(h, static_cast<std::uint64_t>(spot_victims));
  h = Fnv1aU64(h, static_cast<std::uint64_t>(lost_clocks));
  h = Fnv1aU64(h, durable_epoch);
  h = Fnv1aU64(h, static_cast<std::uint64_t>(final_clock));
  h = Fnv1aU64(h, static_cast<std::uint64_t>(violations.size()));
  return h;
}

TierStormResult RunTierStorm(MLApp* app, const TierStormConfig& config,
                             obs::Tracer* tracer,
                             obs::MetricsRegistry* metrics) {
  TierStormDriver driver(app, config, tracer, metrics);
  return driver.Run();
}

}  // namespace proteus
