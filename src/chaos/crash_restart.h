// Crash/restart recovery driver (PR 6): proves, for every depth of the
// escalation ladder, that recovery restores the exact bytes the ladder
// promises — not merely "a plausible model".
//
// A seeded run trains to a crash point, takes the scenario's failure,
// recovers, and compares model digests:
//
//   kBackupPromotion  every ActivePS host dies unwarned; the BackupPS
//                     copy is promoted. The post-recovery digest must
//                     equal the digest captured at the last
//                     active->backup sync (the rollback target).
//   kActiveRebuild    a reliable node holding only BackupPS state dies;
//                     the backup is rebuilt from the active copy. The
//                     active state never moved, so the post-recovery
//                     digest must equal the digest taken immediately
//                     before the crash.
//   kDurableRestore   both tiers die at once and the process restarts
//                     from scratch: the runtime and auditor are torn
//                     down, a *new* CheckpointStore reopens the same
//                     durable device (recovering its epoch cursor), and
//                     a fresh runtime restores the newest valid epoch.
//                     The post-recovery digest must equal the digest
//                     recorded when that epoch was committed. Optionally
//                     the newest N epochs are corrupted first; recovery
//                     must skip exactly those and never load a damaged
//                     frame.
//
// Digests (StateDigest) cover the canonical checkpoint serialization plus
// the clock (lost-clock accounting intentionally excluded: it differs
// across the crash by design). Everything is deterministic in the seed.
#ifndef SRC_CHAOS_CRASH_RESTART_H_
#define SRC_CHAOS_CRASH_RESTART_H_

#include <cstdint>
#include <vector>

#include "src/agileml/recovery_manager.h"
#include "src/agileml/runtime.h"
#include "src/chaos/consistency_auditor.h"
#include "src/obs/emitter.h"
#include "src/ps/checkpoint_store.h"

namespace proteus {

enum class CrashScenario : int {
  kBackupPromotion = 0,
  kActiveRebuild = 1,
  kDurableRestore = 2,
};

const char* CrashScenarioName(CrashScenario scenario);

struct CrashRestartConfig {
  AgileMLConfig agileml;
  CrashScenario scenario = CrashScenario::kDurableRestore;
  int horizon = 24;         // Clocks to run end to end.
  int checkpoint_every = 4;  // Durable checkpoint cadence (boundaries).
  Clock crash_at = 13;      // Boundary at which the crash fires.
  // kDurableRestore only: corrupt the newest N committed epochs before
  // the restart (one bit flip in each epoch's manifest). Recovery must
  // skip exactly these and land on the newest intact epoch.
  int corrupt_newest_epochs = 0;
  int initial_reliable = 2;
  int initial_transient_allocations = 2;
  int nodes_per_allocation = 4;
  // Retain enough epochs that corruption never exhausts the store.
  int durable_retain = 8;
  std::uint64_t seed = 1;
};

struct CrashRestartResult {
  RecoveryDepth depth = RecoveryDepth::kNone;
  std::uint64_t expected_digest = 0;       // Reference state for the depth.
  std::uint64_t post_recovery_digest = 0;  // Taken right after recovery.
  bool digest_match = false;
  Clock restored_clock = 0;
  int lost_clocks = 0;
  std::uint64_t durable_epoch = 0;  // Epoch restored (depth 3 only).
  int corrupt_epochs_skipped = 0;
  int corrupt_frames_injected = 0;
  // Scrub result taken right after the depth-3 restart: every injected
  // corruption must be found.
  std::uint64_t scrub_corruptions_found = 0;
  Clock final_clock = 0;
  std::vector<AuditViolation> violations;  // Both runtime generations.

  bool ok() const { return digest_match && violations.empty(); }
};

// Runs the scenario against `app` (must outlive the call); deterministic
// in config.seed.
CrashRestartResult RunCrashRestart(MLApp* app, const CrashRestartConfig& config,
                                   obs::Tracer* tracer = nullptr,
                                   obs::MetricsRegistry* metrics = nullptr);

}  // namespace proteus

#endif  // SRC_CHAOS_CRASH_RESTART_H_
