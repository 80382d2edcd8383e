// Scripted-recovery soak (ctest label: "soak"): every row of the
// scenario table, across many seeds — and, for the durable restart,
// across corruption levels — must recover to a digest byte-identical to
// the row's reference with zero auditor violations. A corrupted frame
// is never loaded; a zero-warning serverless loss is never drained (the
// runtime CHECK-fails on any) and is confirmed by the detector.
//
// Run alone with `ctest -L soak`; exclude with `ctest -LE soak`.
#include <gtest/gtest.h>

#include <memory>

#include "src/apps/datasets.h"
#include "src/apps/mf.h"
#include "src/chaos/scripted_recovery.h"

namespace proteus {
namespace {

class ScriptedRecoverySoakFixture : public ::testing::Test {
 protected:
  ScriptedRecoverySoakFixture() {
    RatingsConfig rc;
    rc.users = 300;
    rc.items = 150;
    rc.ratings = 10000;
    data_ = GenerateRatings(rc);
    MfConfig mc;
    mc.rank = 4;
    app_ = std::make_unique<MatrixFactorizationApp>(&data_, mc);
  }

  // Crash rows fire at 15, storm rows at 11, both within 24 clocks.
  static ScriptedRecoveryConfig Config(RecoveryScenario scenario, std::uint64_t seed) {
    const bool storm = ScenarioRowOf(scenario).storm;
    ScriptedRecoveryConfig config;
    config.agileml.num_partitions = 8;
    config.agileml.data_blocks = 64;
    config.agileml.parallel_execution = false;
    config.agileml.backup_sync_every = 3;
    config.agileml.seed = seed;
    config.scenario = scenario;
    config.horizon = 24;
    config.checkpoint_every = 4;
    config.fire_at = storm ? 11 : 15;
    return config;
  }

  ScriptedRecoveryResult Run(const ScriptedRecoveryConfig& config) {
    return RunScriptedRecovery(app_.get(), config);
  }

  RatingsDataset data_;
  std::unique_ptr<MatrixFactorizationApp> app_;
};

using CrashRestartSoakTest = ScriptedRecoverySoakFixture;
using TierStormSoakTest = ScriptedRecoverySoakFixture;

// Every row's result must match its reference with a clean auditor.
void ExpectByteIdentical(const ScenarioRow& row, std::uint64_t seed,
                         const ScriptedRecoveryResult& result) {
  ASSERT_TRUE(result.digest_match)
      << row.name << " seed " << seed
      << ": post-recovery digest differs from the row's reference";
  ASSERT_TRUE(result.violations.empty())
      << row.name << " seed " << seed << ": " << result.violations.size()
      << " auditor violation(s), first: " << result.violations.front().invariant << " — "
      << result.violations.front().detail;
}

TEST_F(CrashRestartSoakTest, EveryDepthByteIdenticalAcrossSeeds) {
  constexpr int kSeeds = 25;
  for (const ScenarioRow& row : RecoveryScenarios()) {
    if (row.storm) {
      continue;
    }
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      ExpectByteIdentical(row, seed, Run(Config(row.scenario, seed)));
    }
  }
}

TEST_F(CrashRestartSoakTest, CorruptedEpochsAreAlwaysSkippedNeverLoaded) {
  constexpr int kSeeds = 15;
  for (int corrupt = 1; corrupt <= 3; ++corrupt) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      ScriptedRecoveryConfig config = Config(RecoveryScenario::kDurableRestore, seed);
      config.corrupt_newest_epochs = corrupt;
      const ScriptedRecoveryResult result = Run(config);
      ASSERT_EQ(result.corrupt_frames_injected, corrupt)
          << "seed " << seed << " corrupt " << corrupt;
      ASSERT_EQ(result.corrupt_epochs_skipped, corrupt)
          << "seed " << seed << " corrupt " << corrupt;
      ASSERT_EQ(result.scrub_corruptions_found, static_cast<std::uint64_t>(corrupt))
          << "seed " << seed << " corrupt " << corrupt;
      ASSERT_TRUE(result.digest_match)
          << "seed " << seed << " corrupt " << corrupt
          << ": loaded state does not match a committed epoch";
      ASSERT_TRUE(result.violations.empty()) << "seed " << seed << " corrupt " << corrupt;
    }
  }
}

TEST_F(TierStormSoakTest, EveryScenarioByteIdenticalAcrossSeeds) {
  constexpr int kSeeds = 25;
  for (const ScenarioRow& row : RecoveryScenarios()) {
    if (!row.storm) {
      continue;
    }
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const ScriptedRecoveryResult result = Run(Config(row.scenario, seed));
      ExpectByteIdentical(row, seed, result);
      ASSERT_EQ(result.storm_victims, 6) << row.name << " seed " << seed;
    }
  }
}

TEST_F(TierStormSoakTest, DetectorConfirmsEveryZeroWarningLoss) {
  constexpr int kSeeds = 25;
  for (const ScenarioRow& row : RecoveryScenarios()) {
    if (row.check != DigestCheck::kOnConfirm) {
      continue;
    }
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const ScriptedRecoveryResult result = Run(Config(row.scenario, seed));
      ASSERT_EQ(result.confirmed_serverless, result.storm_victims)
          << row.name << " seed " << seed << ": a zero-warning loss bypassed the detector path";
      ASSERT_EQ(result.depth, RecoveryDepth::kBackupPromotion) << row.name << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace proteus
