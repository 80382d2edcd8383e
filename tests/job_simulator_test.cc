#include <gtest/gtest.h>

#include <string>

#include "src/common/stats.h"
#include "src/proteus/job_simulator.h"

namespace proteus {
namespace {

class JobSimulatorTest : public ::testing::Test {
 protected:
  JobSimulatorTest() : catalog_(InstanceTypeCatalog::Default()) {
    SyntheticTraceConfig config;
    config.spikes_per_day = 3.0;
    Rng rng(41);
    traces_ =
        TraceStore::GenerateSynthetic(catalog_, {"z0", "z1"}, 40 * kDay, config, rng);
    estimator_.Train(traces_, 0.0, 15 * kDay);
    sim_ = std::make_unique<JobSimulator>(&catalog_, &traces_, &estimator_);
    job_ = JobSpec::ForReferenceDuration(catalog_, "c4.2xlarge", 64, 2 * kHour, 0.95);
  }

  SchemeConfig Config() const {
    SchemeConfig config;
    config.bidbrain.max_spot_instances = 160;
    return config;
  }

  InstanceTypeCatalog catalog_;
  TraceStore traces_;
  EvictionEstimator estimator_;
  std::unique_ptr<JobSimulator> sim_;
  JobSpec job_;
};

TEST_F(JobSimulatorTest, OnDemandOnlyRunsExactlyReferenceDuration) {
  const JobResult result = sim_->Run(SchemeKind::kOnDemandOnly, job_, Config(), 16 * kDay);
  ASSERT_TRUE(result.completed);
  EXPECT_NEAR(result.runtime, 2 * kHour, 2.0);
  // 64 machines x 2h x $0.419, final hour fully used.
  EXPECT_NEAR(result.bill.cost, 64 * 2 * 0.419, 0.5);
  EXPECT_EQ(result.evictions, 0);
  EXPECT_NEAR(result.bill.on_demand_hours, 128.0, 0.1);
}

TEST_F(JobSimulatorTest, StandardCheckpointCompletesAndIsCheaperThanOnDemand) {
  const JobResult od = sim_->Run(SchemeKind::kOnDemandOnly, job_, Config(), 16 * kDay);
  const JobResult ck =
      sim_->Run(SchemeKind::kStandardCheckpoint, job_, Config(), 16 * kDay);
  ASSERT_TRUE(ck.completed);
  EXPECT_LT(ck.bill.cost, od.bill.cost);
  EXPECT_GT(ck.runtime, od.runtime);  // Checkpoint overhead slows it down.
}

TEST_F(JobSimulatorTest, StandardAgileMlBeatsCheckpointOnCost) {
  SampleStats ck_cost;
  SampleStats ag_cost;
  for (int i = 0; i < 12; ++i) {
    const SimTime start = (16 + i * 2) * kDay + i * 3 * kHour;
    ck_cost.Add(sim_->Run(SchemeKind::kStandardCheckpoint, job_, Config(), start).bill.cost);
    ag_cost.Add(sim_->Run(SchemeKind::kStandardAgileML, job_, Config(), start).bill.cost);
  }
  EXPECT_LT(ag_cost.Mean(), ck_cost.Mean());
}

TEST_F(JobSimulatorTest, ProteusCompletesAndBeatsOnDemand) {
  const JobResult od = sim_->Run(SchemeKind::kOnDemandOnly, job_, Config(), 16 * kDay);
  const JobResult pr = sim_->Run(SchemeKind::kProteus, job_, Config(), 16 * kDay);
  ASSERT_TRUE(pr.completed);
  EXPECT_LT(pr.bill.cost, od.bill.cost * 0.6);
  EXPECT_GT(pr.acquisitions, 0);
}

TEST_F(JobSimulatorTest, ProteusUsesOnDemandReliableTier) {
  const JobResult pr = sim_->Run(SchemeKind::kProteus, job_, Config(), 16 * kDay);
  EXPECT_GT(pr.bill.on_demand_hours, 0.0);
  EXPECT_GT(pr.bill.spot_paid_hours, 0.0);
}

TEST_F(JobSimulatorTest, CheckpointSchemeLosesWorkOnEvictions) {
  // Find a window with at least one eviction for the checkpoint scheme.
  for (int i = 0; i < 20; ++i) {
    const SimTime start = (16 + i) * kDay;
    const JobResult ck =
        sim_->Run(SchemeKind::kStandardCheckpoint, job_, Config(), start);
    if (ck.evictions > 0 && ck.completed) {
      // Wall time must exceed ideal work time (lost work + restarts).
      const double ideal = 2 * kHour / (1.0 - kCheckpointOverhead);
      EXPECT_GT(ck.runtime, ideal * 0.99);
      return;
    }
  }
  GTEST_SKIP() << "no eviction encountered in sampled windows";
}


TEST_F(JobSimulatorTest, FlintDiversificationSpreadsEvictionRisk) {
  SampleStats flint_cost;
  SampleStats flint_runtime;
  SampleStats ck_runtime;
  int flint_acqs = 0;
  for (int i = 0; i < 12; ++i) {
    const SimTime start = (16 + 2 * i) * kDay;
    const JobResult flint =
        sim_->Run(SchemeKind::kFlintDiversified, job_, Config(), start);
    const JobResult ck =
        sim_->Run(SchemeKind::kStandardCheckpoint, job_, Config(), start);
    ASSERT_TRUE(flint.completed);
    flint_cost.Add(flint.bill.cost);
    flint_runtime.Add(flint.runtime);
    ck_runtime.Add(ck.runtime);
    flint_acqs += flint.acquisitions;
  }
  // Diversification acquires from several markets per top-up.
  EXPECT_GT(flint_acqs, 12);
  // And it must not be catastrophically worse than single-market
  // checkpointing (the baselines are comparable by design).
  EXPECT_LT(flint_runtime.Mean(), ck_runtime.Mean() * 1.5);
}

// Pins every scheme at three starts that cover checkpoint rollbacks,
// Flint's three-way split (day 6 fails if Flint pauses for sigma without
// a grant) and BidBrain renewals: exact counts, hex-exact runtime and
// cost. OnDemandOnly is held to rounding only (its accrual is
// split at decision points).
TEST_F(JobSimulatorTest, SchemeGolden) {
  struct Golden {
    int day;  // start = (16 + day) days + day * 5 hours.
    SchemeKind scheme;
    bool completed;
    int evictions;
    int acquisitions;
    SimDuration runtime;
    Money cost;
  };
  using enum SchemeKind;
  const Golden goldens[] = {
      {6, kOnDemandOnly, true, 0, 0, 0x1.c2p+12, 0x1.ad0e560418937p+5},
      {6, kStandardCheckpoint, true, 0, 1, 0x1.100d9721ed8p+13, 0x1.ee8756cdcf604p+3},
      {6, kFlintDiversified, true, 6, 18, 0x1.e3b3af8f588p+13, 0x1.76659271cc701p+4},
      {6, kStandardAgileML, true, 0, 1, 0x1.c3fp+12, 0x1.bf9467a7f69b4p+3},
      {6, kProteus, true, 1, 10, 0x1.623e38e38e4p+11, 0x1.c518ca60751d7p+3},
      {7, kOnDemandOnly, true, 0, 0, 0x1.c2p+12, 0x1.ad0e560418937p+5},
      {7, kStandardCheckpoint, true, 1, 2, 0x1.58d034cb448p+13, 0x1.1be1f003b803ep+4},
      {7, kFlintDiversified, true, 1, 6, 0x1.53670335158p+13, 0x1.3aa27093d7ed5p+4},
      {7, kStandardAgileML, true, 1, 2, 0x1.c7bp+12, 0x1.99dc031841e67p+3},
      {7, kProteus, true, 8, 13, 0x1.c844p+11, 0x1.46568baec592ap+2},
      {17, kOnDemandOnly, true, 0, 0, 0x1.c2p+12, 0x1.ad0e560418937p+5},
      {17, kStandardCheckpoint, true, 2, 3, 0x1.6e113c850b4p+13, 0x1.55675b9888e36p+3},
      {17, kFlintDiversified, true, 2, 9, 0x1.66c07182594p+13, 0x1.397139ffe6fd8p+4},
      {17, kStandardAgileML, true, 1, 2, 0x1.c7bp+12, 0x1.1e271fa5ff4a4p+3},
      {17, kProteus, true, 8, 17, 0x1.c33ep+11, 0x1.a06443489bc1ep+3},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(std::string(SchemeName(g.scheme)) + " day " + std::to_string(g.day));
    const SimTime start = (16 + g.day) * kDay + g.day * 5 * kHour;
    const JobResult result = sim_->Run(g.scheme, job_, Config(), start);
    EXPECT_EQ(result.completed, g.completed);
    EXPECT_EQ(result.evictions, g.evictions);
    EXPECT_EQ(result.acquisitions, g.acquisitions);
    if (g.scheme == kOnDemandOnly) {
      EXPECT_DOUBLE_EQ(result.runtime, g.runtime);
      EXPECT_DOUBLE_EQ(result.bill.cost, g.cost);
    } else {
      EXPECT_EQ(result.runtime, g.runtime);
      EXPECT_EQ(result.bill.cost, g.cost);
    }
  }
}

TEST_F(JobSimulatorTest, SchemeNamesAreStable) {
  EXPECT_STREQ(SchemeName(SchemeKind::kProteus), "Proteus");
  EXPECT_STREQ(SchemeName(SchemeKind::kStandardCheckpoint), "Standard+Checkpoint");
  EXPECT_STREQ(SchemeName(SchemeKind::kFlintDiversified), "Flint-Diversified");
}

TEST_F(JobSimulatorTest, LongJobCompletes) {
  const JobSpec long_job =
      JobSpec::ForReferenceDuration(catalog_, "c4.2xlarge", 64, 20 * kHour, 0.95);
  const JobResult pr = sim_->Run(SchemeKind::kProteus, long_job, Config(), 16 * kDay);
  ASSERT_TRUE(pr.completed);
  EXPECT_GT(pr.work_done, long_job.total_work * 0.999);
}

}  // namespace
}  // namespace proteus
