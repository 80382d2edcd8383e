#include "src/agileml/recovery_manager.h"

#include <set>
#include <utility>

#include "src/common/logging.h"

namespace proteus {

const char* RecoveryDepthName(RecoveryDepth depth) {
  switch (depth) {
    case RecoveryDepth::kNone:
      return "none";
    case RecoveryDepth::kBackupPromotion:
      return "backup-promotion";
    case RecoveryDepth::kActiveRebuild:
      return "active-rebuild";
    case RecoveryDepth::kDurableRestore:
      return "durable-restore";
  }
  return "?";
}

RecoveryManager::RecoveryManager(AgileMLRuntime* runtime, CheckpointStore* store,
                                 RecoveryManagerConfig config)
    : runtime_(runtime), store_(store), config_(config) {
  PROTEUS_CHECK(runtime_ != nullptr);
  BindMetrics();
}

void RecoveryManager::SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  obs_.SetTracer(tracer);
  obs_.SetMetrics(metrics);
  if (store_ != nullptr) {
    store_->SetObservability(metrics);
  }
  BindMetrics();
}

void RecoveryManager::SetLedger(obs::EventLedger* ledger) { obs_.SetLedger(ledger); }

void RecoveryManager::BindMetrics() {
  for (int d = 0; d < 4; ++d) {
    depth_counters_[d] = obs_.GetCounter(
        "recovery.events", {{"depth", RecoveryDepthName(static_cast<RecoveryDepth>(d))}});
  }
  durable_restores_counter_ = obs_.GetCounter("recovery.durable_restores");
  corrupt_epochs_counter_ = obs_.GetCounter("recovery.corrupt_epochs_skipped");
  last_depth_gauge_ = obs_.GetGauge("recovery.last_depth");
}

void RecoveryManager::OnClockBoundary() {
  ++boundaries_;
  if (config_.checkpoint_every > 0 && boundaries_ % config_.checkpoint_every == 0) {
    ForceCheckpoint();
  }
  if (store_ != nullptr && config_.scrub_every > 0 && boundaries_ % config_.scrub_every == 0) {
    const ScrubReport report = store_->Scrub();
    ++scrubs_run_;
    scrub_corruptions_found_ += report.corrupt_objects.size();
    obs_.Event("recovery.scrub", "recovery", runtime_->total_time(),
               {{"corrupt_found", static_cast<std::int64_t>(report.corrupt_objects.size())}});
  }
}

void RecoveryManager::ForceCheckpoint() {
  const obs::Emitter::Region region =
      obs_.Open("recovery.checkpoint", "recovery", runtime_->total_time(),
                {{"clock", static_cast<std::int64_t>(runtime_->clock())}});
  const std::vector<std::uint8_t>& blob = runtime_->CheckpointReliable();
  last_checkpoint_clock_ = runtime_->clock();
  ++checkpoints_written_;
  std::int64_t durable_committed = 0;
  if (store_ != nullptr) {
    const CheckpointWriteResult result = store_->Write(blob, runtime_->clock());
    if (result.committed) {
      ++durable_commits_;
      durable_committed = 1;
    }
  }
  obs_.Close(region, 0.0, {{"durable_committed", durable_committed}});
}

RecoveryDepth RecoveryManager::Classify(const std::vector<NodeId>& failed) const {
  const RoleAssignment& roles = runtime_->roles();
  std::set<NodeId> dead;
  for (const NodeId id : failed) {
    // Preparing nodes hold no solution state and never appear in roles.
    if (runtime_->IsReadyNode(id)) {
      dead.insert(id);
    }
  }
  if (dead.empty()) {
    return RecoveryDepth::kNone;
  }
  bool server_lost = false;
  bool backup_lost = false;
  bool pair_lost = false;
  for (const auto& [partition, server] : roles.server) {
    const bool server_dead = dead.count(server) > 0;
    bool backup_dead = false;
    if (roles.UsesBackups()) {
      const auto it = roles.backup.find(partition);
      backup_dead = it != roles.backup.end() && dead.count(it->second) > 0;
    }
    server_lost |= server_dead;
    backup_lost |= backup_dead;
    // In stage 1 there is no backup tier at all, so a dead server
    // already means "every live copy of this partition is gone".
    if (server_dead && (!roles.UsesBackups() || backup_dead)) {
      pair_lost = true;
    }
  }
  // Losing the in-memory checkpoint holders together with the active
  // copy is also a both-tiers event even if the backup map looks
  // intact on paper (the harness drops the checkpoint explicitly).
  if (pair_lost) {
    return RecoveryDepth::kDurableRestore;
  }
  if (server_lost) {
    return RecoveryDepth::kBackupPromotion;
  }
  if (backup_lost) {
    return RecoveryDepth::kActiveRebuild;
  }
  return RecoveryDepth::kNone;
}

RecoveryOutcome RecoveryManager::Recover(const std::vector<NodeId>& failed) {
  RecoveryOutcome outcome;
  outcome.depth = Classify(failed);
  const SimDuration at = runtime_->total_time();
  // Everything the ladder does — the runtime's rollback, checkpoint
  // restore, eviction records — lands inside this causal region.
  const obs::Emitter::Region step = obs_.Open(
      "recovery.step", "recovery", at, {{"failed", static_cast<std::int64_t>(failed.size())}});

  if (outcome.depth == RecoveryDepth::kDurableRestore) {
    // Load *before* Fail(): the failure path refuses to proceed without
    // a checkpoint once both tiers are gone. Corrupt or torn epochs are
    // skipped by the store's validation — never loaded.
    if (store_ != nullptr) {
      if (auto loaded = store_->ReadNewestValid()) {
        outcome.used_durable = true;
        outcome.durable_epoch = loaded->epoch;
        outcome.corrupt_epochs_skipped = loaded->corrupt_epochs_skipped;
        outcome.torn_epochs_skipped = loaded->torn_epochs_skipped;
        runtime_->InstallCheckpoint(std::move(loaded->payload), loaded->clock);
      }
    }
    // If no durable epoch validates, fall back to the in-memory
    // checkpoint — Fail() CHECKs that one exists.
    outcome.lost_clocks = runtime_->FailWithDurableRestore(failed);
  } else {
    outcome.lost_clocks = runtime_->Fail(failed);
  }
  outcome.restored_clock = runtime_->clock();

  const auto depth_index = static_cast<std::size_t>(outcome.depth);
  ++depth_counts_[depth_index];
  depth_counters_[depth_index]->Increment();
  last_depth_gauge_->Set(static_cast<double>(outcome.depth));
  if (outcome.used_durable) {
    durable_restores_counter_->Increment();
    corrupt_epochs_counter_->Add(static_cast<std::uint64_t>(outcome.corrupt_epochs_skipped));
  }

  if (outcome.depth == RecoveryDepth::kDurableRestore) {
    // Re-arm immediately: until the next cadence tick the freshly
    // restored state is the only copy, and a second correlated loss
    // before then must still find a checkpoint.
    ForceCheckpoint();
  }
  obs_.Close(step, runtime_->total_time() - at,
             {{"depth", std::string(RecoveryDepthName(outcome.depth))},
              {"lost_clocks", static_cast<std::int64_t>(outcome.lost_clocks)},
              {"restored_clock", static_cast<std::int64_t>(outcome.restored_clock)},
              {"durable_epoch", static_cast<std::int64_t>(outcome.durable_epoch)},
              {"used_durable", static_cast<std::int64_t>(outcome.used_durable)},
              {"corrupt_epochs_skipped",
               static_cast<std::int64_t>(outcome.corrupt_epochs_skipped)}});
  return outcome;
}

}  // namespace proteus
