// Multi-level recovery orchestration (§3.3 "Failures", completed with a
// durable bottom tier).
//
// The paper's tiered-reliability story is an escalation ladder:
//
//   depth 1  ActivePS dead            -> promote its BackupPS, re-replicate
//   depth 2  BackupPS dead            -> rebuild the backup from the active
//   depth 3  both tiers lost          -> restore the newest *valid* durable
//                                        checkpoint, skipping corrupted
//                                        epochs, and rebuild clock tables
//
// RecoveryManager owns that ladder. It classifies a confirmed-dead set
// against the current role assignment, runs the shallowest recovery
// that suffices, and reports what it did (depth, lost clocks, durable
// epoch used, corrupted epochs skipped) so drivers and the chaos
// harness can assert on it. It also owns the checkpoint cadence: at
// every clock boundary it refreshes the in-memory reliable-tier
// checkpoint and mirrors it to the CheckpointStore, and periodically
// scrubs the store so storage-level corruption is found before the
// epoch is needed.
//
// Depths are cumulative in damage, not in work: a depth-3 event is
// handled in one shot (membership cleanup + durable restore), not by
// running depths 1 and 2 first.
#ifndef SRC_AGILEML_RECOVERY_MANAGER_H_
#define SRC_AGILEML_RECOVERY_MANAGER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/agileml/runtime.h"
#include "src/common/types.h"
#include "src/obs/emitter.h"
#include "src/ps/checkpoint_store.h"

namespace proteus {

enum class RecoveryDepth : int {
  kNone = 0,             // Only workers died: no solution state involved.
  kBackupPromotion = 1,  // ActivePS lost; backup promoted, work since last sync redone.
  kActiveRebuild = 2,    // Backup lost; re-replicated from the active copy, no lost work.
  kDurableRestore = 3,   // Both tiers lost; newest valid durable epoch restored.
};

const char* RecoveryDepthName(RecoveryDepth depth);

struct RecoveryManagerConfig {
  // Refresh the reliable-tier checkpoint (and mirror it to the durable
  // store) every this many clock boundaries. <= 0 disables the cadence
  // (ForceCheckpoint still works).
  int checkpoint_every = 5;
  // Scrub the durable store every this many boundaries (0 = never).
  int scrub_every = 0;
};

struct RecoveryOutcome {
  RecoveryDepth depth = RecoveryDepth::kNone;
  int lost_clocks = 0;
  Clock restored_clock = 0;         // runtime->clock() after recovery.
  std::uint64_t durable_epoch = 0;  // Epoch restored at depth 3 (0 = in-memory fallback).
  int corrupt_epochs_skipped = 0;   // Committed epochs rejected on the way down.
  int torn_epochs_skipped = 0;
  bool used_durable = false;
};

class RecoveryManager {
 public:
  // `store` may be null: the ladder then bottoms out at the in-memory
  // checkpoint, as before this subsystem existed. Neither pointer is
  // owned; `runtime` must outlive the manager.
  RecoveryManager(AgileMLRuntime* runtime, CheckpointStore* store,
                  RecoveryManagerConfig config = {});

  void SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  // Attaches the causal event ledger. Recover() becomes a
  // "recovery.step" causal region — the rollbacks, checkpoints, and
  // restores the runtime performs on its behalf are recorded as its
  // children. Checkpoint cadence and scrubs record leaf events.
  void SetLedger(obs::EventLedger* ledger);

  // Call once per clock boundary (before RunClock). Handles the
  // checkpoint cadence and periodic scrubbing.
  void OnClockBoundary();

  // Snapshot + mirror right now, regardless of cadence.
  void ForceCheckpoint();

  // Classifies `failed` against runtime->roles(), executes the
  // shallowest sufficient recovery level, and re-arms the ladder (a
  // depth-3 recovery immediately re-checkpoints, so a second correlated
  // loss is survivable).
  RecoveryOutcome Recover(const std::vector<NodeId>& failed);

  // Classification only — which depth Recover() would run.
  RecoveryDepth Classify(const std::vector<NodeId>& failed) const;

  // Per-depth event counts (indexed by RecoveryDepth).
  const std::array<int, 4>& depth_counts() const { return depth_counts_; }
  std::uint64_t checkpoints_written() const { return checkpoints_written_; }
  std::uint64_t durable_commits() const { return durable_commits_; }
  std::uint64_t scrub_corruptions_found() const { return scrub_corruptions_found_; }
  std::uint64_t scrubs_run() const { return scrubs_run_; }
  const RecoveryManagerConfig& config() const { return config_; }
  CheckpointStore* store() { return store_; }

 private:
  AgileMLRuntime* runtime_;
  CheckpointStore* store_;
  RecoveryManagerConfig config_;

  std::int64_t boundaries_ = 0;
  Clock last_checkpoint_clock_ = -1;
  std::array<int, 4> depth_counts_{};
  std::uint64_t checkpoints_written_ = 0;
  std::uint64_t durable_commits_ = 0;
  std::uint64_t scrubs_run_ = 0;
  std::uint64_t scrub_corruptions_found_ = 0;

  // Re-resolves the cached metric handles against obs_'s registry.
  void BindMetrics();

  obs::Emitter obs_;
  obs::Counter* depth_counters_[4] = {nullptr, nullptr, nullptr, nullptr};
  obs::Counter* durable_restores_counter_ = nullptr;
  obs::Counter* corrupt_epochs_counter_ = nullptr;
  obs::Gauge* last_depth_gauge_ = nullptr;
};

}  // namespace proteus

#endif  // SRC_AGILEML_RECOVERY_MANAGER_H_
