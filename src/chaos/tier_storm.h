// Eviction-storm survival driver (ISSUE 10): proves that zero-warning
// mass revocations of the ultra-transient serverless tier recover to
// byte-identical state at every depth of the recovery ladder.
//
// A seeded run trains a three-tier cluster (reliable + spot + serverless
// workers) to a storm point, fires a correlated zero-warning revocation,
// and compares model digests against the depth's correct reference:
//
//   kServerlessWipe     every ready serverless node is revoked in the
//                       same instant with no notice of any kind. The
//                       failure detector confirms the deaths a few
//                       clocks later and the runtime rolls back to the
//                       last active->backup sync — which, thanks to
//                       sync suppression while revocations pend, always
//                       predates the storm. The post-rollback digest
//                       must equal the digest captured at that sync.
//   kCrossTierSpot      the same serverless wipe, plus the storm
//                       crosses tiers: ActivePS-hosting spot nodes go
//                       silently dark in the same instant. One detector
//                       batch confirms both tiers; same sync-digest pin.
//   kBackupHolderOverlap  the serverless wipe overlaps a reliable
//                       pure-backup holder dying (depth 2: the backup
//                       is rebuilt from the active copy). The active
//                       state never moves, so the digest immediately
//                       after recovery must equal the digest
//                       immediately before the crash.
//   kFullWipe           the storm revokes the entire serverless tier
//                       mid-round; one boundary later — with the
//                       revocations still unconfirmed — a correlated
//                       event takes every spot node AND the reliable
//                       state holders (depth 3). The in-memory
//                       checkpoint dies with them; recovery must come
//                       from the durable store, and the restored digest
//                       must equal the digest recorded when that epoch
//                       committed.
//
// Throughout every scenario the ConsistencyAuditor re-checks all nine
// invariants (including the TierGuard exposure bounds) at every clock
// boundary, and no serverless loss ever takes a warned-drain path: the
// runtime CHECK-fails on Evict() of a revoked node, and the driver
// never sends a serverless eviction notice. Everything is deterministic
// in the seed.
#ifndef SRC_CHAOS_TIER_STORM_H_
#define SRC_CHAOS_TIER_STORM_H_

#include <cstdint>
#include <vector>

#include "src/agileml/recovery_manager.h"
#include "src/agileml/runtime.h"
#include "src/chaos/consistency_auditor.h"
#include "src/obs/emitter.h"
#include "src/ps/checkpoint_store.h"

namespace proteus {

enum class TierStormScenario : int {
  kServerlessWipe = 0,
  kCrossTierSpot = 1,
  kBackupHolderOverlap = 2,
  kFullWipe = 3,
};

const char* TierStormScenarioName(TierStormScenario scenario);

struct TierStormConfig {
  AgileMLConfig agileml;
  TierStormScenario scenario = TierStormScenario::kServerlessWipe;
  int horizon = 22;          // Clocks to run end to end.
  int checkpoint_every = 4;  // Durable checkpoint cadence (boundaries).
  Clock storm_at = 9;        // Boundary at which the storm fires.
  int initial_reliable = 2;
  int initial_transient_allocations = 2;
  int nodes_per_allocation = 4;
  int initial_serverless = 6;  // Serverless worker slots, one allocation.
  int durable_retain = 8;
  std::uint64_t seed = 1;
};

struct TierStormResult {
  TierStormScenario scenario = TierStormScenario::kServerlessWipe;
  RecoveryDepth depth = RecoveryDepth::kNone;
  std::uint64_t expected_digest = 0;       // Correct reference for the depth.
  std::uint64_t post_recovery_digest = 0;  // Taken right after recovery.
  bool digest_match = false;
  int storm_victims = 0;      // Serverless nodes revoked with zero warning.
  int confirmed_serverless = 0;  // Subset the detector confirmed dead.
  int spot_victims = 0;       // Spot nodes the storm took with it.
  int lost_clocks = 0;        // Total clocks rolled back across the run.
  std::uint64_t durable_epoch = 0;  // Epoch restored (kFullWipe only).
  Clock final_clock = 0;
  std::vector<AuditViolation> violations;

  bool ok() const { return digest_match && violations.empty(); }
  // Order-sensitive fingerprint for determinism pins.
  std::uint64_t Digest() const;
};

// Runs the scenario against `app` (must outlive the call); deterministic
// in config.seed.
TierStormResult RunTierStorm(MLApp* app, const TierStormConfig& config,
                             obs::Tracer* tracer = nullptr,
                             obs::MetricsRegistry* metrics = nullptr);

}  // namespace proteus

#endif  // SRC_CHAOS_TIER_STORM_H_
