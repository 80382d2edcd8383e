// Scripted-recovery driver: proves, for every depth of the escalation
// ladder, that recovery restores the exact bytes the ladder promises —
// not merely "a plausible model" — including when the ultra-transient
// serverless tier is revoked en masse with zero warning.
//
// A seeded run trains to the fire boundary, takes one scripted failure,
// recovers, and compares model digests (StateDigest: the canonical
// checkpoint serialization plus the clock). Each scenario is one row of
// RecoveryScenarios(), which names the boundary the failure fires at,
// the victims it takes, the reference digest, and when that digest is
// checked:
//
//   backup-promotion    every ActivePS host dies unwarned; the BackupPS
//                       copy is promoted. Must equal the last sync.
//   active-rebuild      a reliable node holding only BackupPS state
//                       dies; the backup is rebuilt from the active
//                       copy. Must equal the state just before the crash.
//   durable-restore     both tiers die and the process restarts over the
//                       same durable device (the newest N epochs
//                       optionally corrupted first: exactly those must
//                       be skipped). Must equal the epoch it restored.
//   serverless-wipe     storm: every ready serverless node is revoked
//                       with no notice of any kind. The detector
//                       confirms the deaths a few clocks later and the
//                       runtime rolls back to the last sync, which
//                       always predates the storm (sync suppression
//                       while revocations pend). Checked at that clock.
//   cross-tier-spot     storm, plus the two spot nodes serving the most
//                       partitions go silently dark in the same instant.
//                       One detector batch confirms both tiers.
//   backup-holder-overlap  storm overlapping the active-rebuild victim:
//                       must equal the state just before the crash, with
//                       every revocation still unconfirmed.
//   full-wipe           storm; one boundary later, with the revocations
//                       still unconfirmed, every spot node and all
//                       reliable state holders but one die. The
//                       in-memory checkpoint dies with them: must equal
//                       the durable epoch restored.
//
// The "crash" rows run two tiers. The storm rows add a serverless
// allocation and arm the failure detector and the TierGuard; the
// ConsistencyAuditor re-checks every invariant (the TierGuard exposure
// bounds included) at every boundary, and no serverless loss ever takes
// a warned-drain path: the runtime CHECK-fails on Evict() of a revoked
// node. Everything is deterministic in config.agileml.seed.
#ifndef SRC_CHAOS_SCRIPTED_RECOVERY_H_
#define SRC_CHAOS_SCRIPTED_RECOVERY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/agileml/recovery_manager.h"
#include "src/agileml/runtime.h"
#include "src/chaos/consistency_auditor.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace proteus {

enum class RecoveryScenario : int {
  kBackupPromotion = 0,
  kActiveRebuild = 1,
  kDurableRestore = 2,
  kServerlessWipe = 3,
  kCrossTierSpot = 4,
  kBackupHolderOverlap = 5,
  kFullWipe = 6,
};

// Who the scripted failure takes, on top of the serverless tier a storm
// row revokes at the fire boundary.
enum class ScriptedVictims : int {
  kNone,
  kActivePsHosts,     // Every ActivePS host, recovered in process.
  kPureBackupHolder,  // LowestPureBackupHolder, recovered in process.
  kSpotPsHosts,       // Two spot nodes serving the most partitions, silenced.
  kWholeProcess,      // Both tiers and the process: a restart.
  kEveryStateHolder,  // Every spot node, the storm's victims and all
                      // reliable nodes but the one holding least.
};

// The state the post-recovery digest must equal.
enum class ReferenceDigest : int {
  kLastSync,        // Captured at the last active->backup sync.
  kPreCrash,        // Taken immediately before the failure.
  kCommittedEpoch,  // Recorded when the restored durable epoch committed.
};

// When the post-recovery digest is taken and compared.
enum class DigestCheck : int {
  kAtOnce,     // Right after the driver-run recovery.
  kOnConfirm,  // At the end of the clock whose detector batch confirms
               // the deaths (the runtime rolls back inside it).
};

struct ScenarioRow {
  RecoveryScenario scenario;
  const char* name;
  // Storm rows run a three-tier cluster, arm the detector and the
  // TierGuard, and revoke every ready serverless node at fire_at.
  bool storm;
  int fire_offset;  // `victims` die at boundary fire_at + fire_offset.
  ScriptedVictims victims;
  ReferenceDigest reference;
  DigestCheck check;
};

// The seven scenarios in RecoveryScenario order (crash rows first).
std::span<const ScenarioRow> RecoveryScenarios();
const ScenarioRow& ScenarioRowOf(RecoveryScenario scenario);

struct ScriptedRecoveryConfig {
  AgileMLConfig agileml;
  RecoveryScenario scenario = RecoveryScenario::kDurableRestore;
  int horizon = 24;          // Clocks to run end to end.
  int checkpoint_every = 4;  // Durable checkpoint cadence (boundaries).
  Clock fire_at = 13;        // Boundary at which the scripted failure fires.
  // kWholeProcess only: corrupt the newest N committed epochs before the
  // restart (one bit flip in each epoch's manifest).
  int corrupt_newest_epochs = 0;
};

struct ScriptedRecoveryResult {
  RecoveryScenario scenario = RecoveryScenario::kDurableRestore;
  RecoveryDepth depth = RecoveryDepth::kNone;
  std::uint64_t expected_digest = 0;       // The row's reference.
  std::uint64_t post_recovery_digest = 0;  // Taken when the row says.
  bool digest_match = false;
  Clock restored_clock = 0;  // Clock training resumed from.
  int lost_clocks = 0;       // Clocks rolled back across the run.
  std::uint64_t durable_epoch = 0;  // Epoch restored (depth 3 only).
  int corrupt_epochs_skipped = 0;
  int corrupt_frames_injected = 0;
  // Scrub taken right after a restart: finds every injected corruption.
  std::uint64_t scrub_corruptions_found = 0;
  int storm_victims = 0;         // Serverless nodes revoked with zero warning.
  int confirmed_serverless = 0;  // Subset the detector confirmed dead.
  int spot_victims = 0;          // Spot nodes the storm took with it.
  Clock final_clock = 0;
  std::vector<AuditViolation> violations;  // Every runtime generation.

  bool ok() const { return digest_match && violations.empty(); }
  // Order-sensitive fingerprint for determinism pins.
  std::uint64_t Digest() const;
};

// Runs the scenario against `app` (must outlive the call).
ScriptedRecoveryResult RunScriptedRecovery(MLApp* app, const ScriptedRecoveryConfig& config,
                                           obs::Tracer* tracer = nullptr,
                                           obs::MetricsRegistry* metrics = nullptr);

}  // namespace proteus

#endif  // SRC_CHAOS_SCRIPTED_RECOVERY_H_
