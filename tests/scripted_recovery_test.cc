// Scripted-recovery driver tests. For every row of the scenario table
// the post-recovery model digest must be byte-identical to the row's
// reference, across many seeds, with zero auditor violations (the
// TierGuard exposure bound is re-checked at every clock of the storm
// rows) — no injected corrupted frame is ever loaded, and no serverless
// loss ever takes a warned-drain path. CrashRestartTest covers the crash
// rows, TierStormTest the storm rows; VictimPicker pins the shared
// victim orders on hand-built role maps.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/apps/datasets.h"
#include "src/apps/mf.h"
#include "src/chaos/scenario.h"
#include "src/chaos/scripted_recovery.h"

namespace proteus {
namespace {

class ScriptedRecoveryFixture : public ::testing::Test {
 protected:
  ScriptedRecoveryFixture() {
    RatingsConfig rc;
    rc.users = 200;
    rc.items = 100;
    rc.ratings = 5000;
    data_ = GenerateRatings(rc);
    MfConfig mc;
    mc.rank = 4;
    app_ = std::make_unique<MatrixFactorizationApp>(&data_, mc);
  }

  // Crash rows run 20 clocks and fire at 13; storm rows run 22 and fire
  // at 9, leaving the detector room to confirm.
  static ScriptedRecoveryConfig Config(RecoveryScenario scenario, std::uint64_t seed) {
    const bool storm = ScenarioRowOf(scenario).storm;
    ScriptedRecoveryConfig config;
    config.agileml.num_partitions = 8;
    config.agileml.data_blocks = 64;
    config.agileml.parallel_execution = false;
    config.agileml.backup_sync_every = 3;
    config.agileml.seed = seed;
    config.scenario = scenario;
    config.horizon = storm ? 22 : 20;
    config.checkpoint_every = 4;
    config.fire_at = storm ? 9 : 13;
    return config;
  }

  ScriptedRecoveryResult Run(const ScriptedRecoveryConfig& config) {
    return RunScriptedRecovery(app_.get(), config);
  }
  ScriptedRecoveryResult Run(RecoveryScenario scenario, std::uint64_t seed) {
    return Run(Config(scenario, seed));
  }

  RatingsDataset data_;
  std::unique_ptr<MatrixFactorizationApp> app_;
};

using CrashRestartTest = ScriptedRecoveryFixture;
using TierStormTest = ScriptedRecoveryFixture;

TEST(ScenarioTable, RowsFollowTheEnumAndNameTheirReferences) {
  const auto rows = RecoveryScenarios();
  ASSERT_EQ(rows.size(), 7u);
  std::set<std::string> names;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(rows[i].scenario), i);
    EXPECT_EQ(&ScenarioRowOf(rows[i].scenario), &rows[i]);
    names.insert(rows[i].name);
    // Only a detector-confirmed loss rolls back to the last sync on its
    // own; every other row checks right after its driver-run recovery.
    if (rows[i].check == DigestCheck::kOnConfirm) {
      EXPECT_TRUE(rows[i].storm) << rows[i].name;
      EXPECT_EQ(rows[i].reference, ReferenceDigest::kLastSync) << rows[i].name;
    }
  }
  EXPECT_EQ(names.size(), rows.size());
  const ScenarioRow& full_wipe = ScenarioRowOf(RecoveryScenario::kFullWipe);
  EXPECT_STREQ(full_wipe.name, "full-wipe");
  EXPECT_EQ(full_wipe.fire_offset, 1);
}

TEST_F(CrashRestartTest, BackupPromotionRestoresLastSyncBytes) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const ScriptedRecoveryResult result = Run(RecoveryScenario::kBackupPromotion, seed);
    EXPECT_EQ(result.depth, RecoveryDepth::kBackupPromotion) << "seed " << seed;
    EXPECT_TRUE(result.digest_match)
        << "seed " << seed << ": promoted backup differs from last sync bytes";
    EXPECT_TRUE(result.violations.empty()) << "seed " << seed;
    // The crash landed one clock past the sync (fire_at=13, sync every
    // 3 clocks), so exactly that work is re-done.
    EXPECT_EQ(result.lost_clocks, 1) << "seed " << seed;
    EXPECT_EQ(result.restored_clock, 12) << "seed " << seed;
  }
}

TEST_F(CrashRestartTest, ActiveRebuildLeavesStateUntouched) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const ScriptedRecoveryResult result = Run(RecoveryScenario::kActiveRebuild, seed);
    EXPECT_EQ(result.depth, RecoveryDepth::kActiveRebuild) << "seed " << seed;
    EXPECT_TRUE(result.digest_match)
        << "seed " << seed << ": active state changed during backup rebuild";
    EXPECT_EQ(result.lost_clocks, 0) << "seed " << seed;
    EXPECT_TRUE(result.violations.empty()) << "seed " << seed;
  }
}

TEST_F(CrashRestartTest, DurableRestoreSurvivesFullRestart) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const ScriptedRecoveryResult result = Run(RecoveryScenario::kDurableRestore, seed);
    EXPECT_EQ(result.depth, RecoveryDepth::kDurableRestore) << "seed " << seed;
    EXPECT_TRUE(result.digest_match)
        << "seed " << seed << ": restarted state differs from committed epoch";
    EXPECT_EQ(result.corrupt_epochs_skipped, 0) << "seed " << seed;
    EXPECT_EQ(result.lost_clocks, 0) << "seed " << seed;  // Fresh-runtime restore.
    EXPECT_TRUE(result.violations.empty()) << "seed " << seed;
    // fire_at=13 with cadence 4: the newest epoch holds clock 12.
    EXPECT_EQ(result.restored_clock, 12) << "seed " << seed;
  }
}

TEST_F(CrashRestartTest, DurableRestoreSkipsExactlyTheCorruptedEpochs) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ScriptedRecoveryConfig config = Config(RecoveryScenario::kDurableRestore, seed);
    config.corrupt_newest_epochs = 2;
    const ScriptedRecoveryResult result = Run(config);
    EXPECT_EQ(result.corrupt_frames_injected, 2) << "seed " << seed;
    EXPECT_EQ(result.corrupt_epochs_skipped, 2) << "seed " << seed;
    // The scrub finds every injected corruption.
    EXPECT_EQ(result.scrub_corruptions_found, 2u) << "seed " << seed;
    // A damaged frame is never loaded: the restore still matches a
    // committed epoch bit for bit — just an older one (clock 12 and 8
    // were corrupted; clock 4 survives).
    EXPECT_TRUE(result.digest_match) << "seed " << seed;
    EXPECT_EQ(result.restored_clock, 4) << "seed " << seed;
    EXPECT_TRUE(result.violations.empty()) << "seed " << seed;
  }
}

TEST_F(CrashRestartTest, SameSeedRunsAreDeterministic) {
  for (const ScenarioRow& row : RecoveryScenarios()) {
    if (row.storm) {
      continue;
    }
    const ScriptedRecoveryResult a = Run(row.scenario, 42);
    const ScriptedRecoveryResult b = Run(row.scenario, 42);
    EXPECT_EQ(a.post_recovery_digest, b.post_recovery_digest) << row.name;
    EXPECT_EQ(a.expected_digest, b.expected_digest) << row.name;
    EXPECT_EQ(a.final_clock, b.final_clock) << row.name;
    EXPECT_EQ(a.Digest(), b.Digest()) << row.name;
  }
}

TEST_F(TierStormTest, ServerlessWipeRollsBackToLastSyncBytes) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const ScriptedRecoveryResult result = Run(RecoveryScenario::kServerlessWipe, seed);
    EXPECT_EQ(result.storm_victims, 6) << "seed " << seed;
    // Every zero-warning loss goes through the detector — never a drain.
    EXPECT_EQ(result.confirmed_serverless, result.storm_victims) << "seed " << seed;
    EXPECT_EQ(result.depth, RecoveryDepth::kBackupPromotion) << "seed " << seed;
    EXPECT_TRUE(result.digest_match)
        << "seed " << seed << ": post-rollback digest differs from the last sync bytes";
    EXPECT_GE(result.lost_clocks, 1) << "seed " << seed;
    EXPECT_TRUE(result.violations.empty()) << "seed " << seed;
  }
}

TEST_F(TierStormTest, CrossTierStormConfirmsBothTiersInOneBatch) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const ScriptedRecoveryResult result = Run(RecoveryScenario::kCrossTierSpot, seed);
    EXPECT_EQ(result.storm_victims, 6) << "seed " << seed;
    EXPECT_EQ(result.confirmed_serverless, result.storm_victims) << "seed " << seed;
    EXPECT_EQ(result.spot_victims, 2) << "seed " << seed;
    EXPECT_TRUE(result.digest_match)
        << "seed " << seed << ": cross-tier rollback digest differs from the last sync bytes";
    EXPECT_TRUE(result.violations.empty()) << "seed " << seed;
  }
}

TEST_F(TierStormTest, BackupHolderOverlapLeavesActiveStateUntouched) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const ScriptedRecoveryResult result = Run(RecoveryScenario::kBackupHolderOverlap, seed);
    EXPECT_EQ(result.depth, RecoveryDepth::kActiveRebuild) << "seed " << seed;
    EXPECT_TRUE(result.digest_match)
        << "seed " << seed << ": active state changed during the mid-storm backup rebuild";
    // The pending serverless revocations are still confirmed afterwards.
    EXPECT_EQ(result.confirmed_serverless, result.storm_victims) << "seed " << seed;
    EXPECT_TRUE(result.violations.empty()) << "seed " << seed;
  }
}

TEST_F(TierStormTest, FullWipeRestoresCommittedEpochBytes) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const ScriptedRecoveryResult result = Run(RecoveryScenario::kFullWipe, seed);
    EXPECT_EQ(result.depth, RecoveryDepth::kDurableRestore) << "seed " << seed;
    EXPECT_GT(result.durable_epoch, 0u) << "seed " << seed;
    EXPECT_TRUE(result.digest_match)
        << "seed " << seed << ": durable restore differs from the committed epoch bytes";
    // The whole tier went down with the blast, not via the detector.
    EXPECT_EQ(result.storm_victims, 6) << "seed " << seed;
    EXPECT_EQ(result.confirmed_serverless, 0) << "seed " << seed;
    EXPECT_TRUE(result.violations.empty()) << "seed " << seed;
  }
}

TEST_F(TierStormTest, SameSeedIsDeterministic) {
  for (const ScenarioRow& row : RecoveryScenarios()) {
    if (!row.storm) {
      continue;
    }
    const ScriptedRecoveryResult a = Run(row.scenario, 7);
    const ScriptedRecoveryResult b = Run(row.scenario, 7);
    EXPECT_EQ(a.Digest(), b.Digest()) << row.name;
    EXPECT_EQ(a.post_recovery_digest, b.post_recovery_digest) << row.name;
  }
}

// Stage-3-shaped role map: spot nodes 10..13 serve partitions, reliable
// nodes 1 and 2 back them up.
RoleAssignment HandBuiltRoles() {
  RoleAssignment roles;
  roles.stage = Stage::kStage3;
  roles.server = {{0, 12}, {1, 12}, {2, 10}, {3, 13}, {4, 12}, {5, 10}};
  roles.backup = {{0, 2}, {1, 2}, {2, 1}, {3, 1}, {4, 2}, {5, 2}};
  roles.active_ps_nodes = {10, 12, 13};
  roles.worker_nodes = {10, 11, 12, 13};
  return roles;
}

TEST(VictimPicker, ActivePsHostsFirstKeepsInputOrderOnTies) {
  const RoleAssignment roles = HandBuiltRoles();
  EXPECT_EQ(ActivePsHostsFirst(roles, {11, 13, 2, 10, 12}),
            (std::vector<NodeId>{13, 10, 12, 11, 2}));
  EXPECT_EQ(ActivePsHostsFirst(roles, {12, 10, 13}), (std::vector<NodeId>{12, 10, 13}));
  EXPECT_EQ(ActivePsHostsFirst(roles, {2, 11, 1}), (std::vector<NodeId>{2, 11, 1}));
  EXPECT_TRUE(ActivePsHostsFirst(roles, {}).empty());
}

TEST(VictimPicker, RankByPartitionsHeldWithAndWithoutBackups) {
  const RoleAssignment roles = HandBuiltRoles();
  // Served only: 12 holds 3, 10 holds 2, 13 holds 1; 1, 2 and 11 hold
  // none and keep their input order.
  EXPECT_EQ(RankByPartitionsHeld(roles, /*count_backups=*/false, {1, 13, 2, 10, 11, 12}),
            (std::vector<NodeId>{12, 10, 13, 1, 2, 11}));
  // Backups count too: 2 holds 4, 12 holds 3, then 1 and 10 tie at 2.
  EXPECT_EQ(RankByPartitionsHeld(roles, /*count_backups=*/true, {1, 13, 2, 10, 11, 12}),
            (std::vector<NodeId>{2, 12, 1, 10, 13, 11}));
  EXPECT_EQ(RankByPartitionsHeld(roles, /*count_backups=*/true, {10, 1}),
            (std::vector<NodeId>{10, 1}));
}

TEST(VictimPicker, LowestPureBackupHolder) {
  RoleAssignment roles = HandBuiltRoles();
  EXPECT_EQ(LowestPureBackupHolder(roles), 1);
  // Node 1 starts serving a partition: it is no longer a pure holder.
  roles.server[2] = 1;
  EXPECT_EQ(LowestPureBackupHolder(roles), 2);
  // Every backup holder also serves.
  roles.server[0] = 2;
  EXPECT_EQ(LowestPureBackupHolder(roles), kInvalidNode);
  EXPECT_EQ(LowestPureBackupHolder(RoleAssignment{}), kInvalidNode);
}

}  // namespace
}  // namespace proteus
