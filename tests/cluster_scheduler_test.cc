#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/fleet.h"
#include "src/cluster/karma.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace proteus {
namespace cluster {
namespace {

class ClusterSchedulerTest : public ::testing::Test {
 protected:
  ClusterSchedulerTest() : catalog_(InstanceTypeCatalog::Default()) {
    SyntheticTraceConfig config;
    config.spikes_per_day = 3.0;
    Rng rng(81);
    traces_ = TraceStore::GenerateSynthetic(catalog_, {"z0"}, 40 * kDay, config, rng);
    estimator_.Train(traces_, 0.0, 15 * kDay);
    scheduler_ = std::make_unique<ClusterScheduler>(&catalog_, &traces_, &estimator_);
  }

  // "t0", "t1", ...
  static std::string TenantName(int i) {
    std::string name = "t";
    name += std::to_string(i);
    return name;
  }

  static TenantSpec Tenant(const std::string& name, double slot_hours, int max_slots) {
    TenantSpec spec;
    spec.name = name;
    spec.slot_hours = slot_hours;
    spec.max_slots = max_slots;
    return spec;
  }

  // Fleet rounds start past the estimator's training window.
  FleetConfig Config(int capacity, int rounds = 24) const {
    FleetConfig config;
    config.slot_market = {"z0", "c4.xlarge"};
    config.start = 16 * kDay;
    config.rounds = rounds;
    config.fixed_capacity = capacity;
    return config;
  }

  FleetResult Run(const std::vector<TenantSpec>& specs, const FleetConfig& config,
                  const std::string& mechanism = "karma") {
    const auto allocator = MakeAllocator(mechanism);
    return scheduler_->Run(specs, *allocator, config);
  }

  InstanceTypeCatalog catalog_;
  TraceStore traces_;
  EvictionEstimator estimator_;
  std::unique_ptr<ClusterScheduler> scheduler_;
};

TEST_F(ClusterSchedulerTest, SingleTenantCompletesAndAccountsItsWork) {
  const FleetResult result = Run({Tenant("a", 6.0, 4)}, Config(8));
  const TenantResult* a = result.Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->admitted);
  EXPECT_TRUE(a->completed);
  EXPECT_TRUE(a->deadline_met);  // No deadline: trivially met.
  EXPECT_GT(a->completion_time, 16 * kDay);
  EXPECT_NEAR(a->useful_hours, 6.0, 1e-6);
  EXPECT_GE(a->allocated_hours, a->useful_hours);
  EXPECT_GT(a->cost, 0.0);
  EXPECT_GT(result.total_useful_hours, 0.0);
}

TEST_F(ClusterSchedulerTest, EmptyFleetRunsTheHorizonWithoutWork) {
  const FleetResult result = Run({}, Config(8, 6));
  EXPECT_TRUE(result.tenants.empty());
  EXPECT_TRUE(result.tenant_rounds.empty());
  ASSERT_EQ(result.rounds.size(), 6u);
  EXPECT_DOUBLE_EQ(result.total_useful_hours, 0.0);
  EXPECT_DOUBLE_EQ(result.mean_utilization, 0.0);
  EXPECT_DOUBLE_EQ(result.total_cost, 0.0);
  // The CSV/digest machinery still produces a stable artifact.
  EXPECT_EQ(result.Digest(), Run({}, Config(8, 6)).Digest());
}

TEST_F(ClusterSchedulerTest, GrantsRespectCapacityAndCreditsConserve) {
  std::vector<TenantSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(Tenant(TenantName(i), 500.0, 12));
  }
  const FleetResult result = Run(specs, Config(10));
  ASSERT_FALSE(result.rounds.empty());
  for (const RoundRecord& rec : result.rounds) {
    EXPECT_LE(rec.granted, rec.capacity) << "round " << rec.round;
    EXPECT_TRUE(rec.conservation_ok) << "round " << rec.round;
    EXPECT_LE(rec.utilization, 1.0 + 1e-9) << "round " << rec.round;
    EXPECT_GE(rec.escrow, 0) << "round " << rec.round;
  }
  // Oversubscribed 48 slots of demand onto 10: the pool stays busy.
  EXPECT_GT(result.mean_utilization, 0.5);
}

TEST_F(ClusterSchedulerTest, CapacityDropPreemptsHeldSlots) {
  const SimTime start = 16 * kDay;
  FleetConfig config = Config(0, 12);
  config.capacity = CapacityTrace({{0.0, 16}, {start + 4 * kHour, 2}});
  const FleetResult result =
      Run({Tenant("a", 500.0, 8), Tenant("b", 500.0, 8)}, config);
  EXPECT_GT(result.preempted_slots, 0);
  for (const RoundRecord& rec : result.rounds) {
    if (rec.round >= 4) {
      EXPECT_EQ(rec.capacity, 2) << "round " << rec.round;
    }
    EXPECT_LE(rec.granted, rec.capacity) << "round " << rec.round;
  }
}

TEST_F(ClusterSchedulerTest, MidRoundArrivalAdmittedAtNextBoundary) {
  TenantSpec late = Tenant("late", 4.0, 4);
  late.arrival = 16 * kDay + 1.5 * kHour;  // Mid-round-1.
  const FleetResult result = Run({Tenant("early", 4.0, 4), late}, Config(8));
  int first_late_round = -1;
  for (const TenantRound& row : result.tenant_rounds) {
    if (row.tenant == 1) {
      first_late_round = row.round;
      break;
    }
  }
  EXPECT_EQ(first_late_round, 2);
  const TenantResult* l = result.Find("late");
  ASSERT_NE(l, nullptr);
  EXPECT_TRUE(l->admitted);
  EXPECT_TRUE(l->completed);
}

TEST_F(ClusterSchedulerTest, SimultaneousDeadlinesBothMetDeterministically) {
  TenantSpec a = Tenant("a", 8.0, 4);
  TenantSpec b = Tenant("b", 8.0, 4);
  a.deadline = b.deadline = 16 * kDay + 12 * kHour;
  const FleetResult result = Run({a, b}, Config(8));
  for (const char* name : {"a", "b"}) {
    const TenantResult* t = result.Find(name);
    ASSERT_NE(t, nullptr);
    EXPECT_TRUE(t->completed) << name;
    EXPECT_TRUE(t->deadline_met) << name;
    EXPECT_LE(t->completion_time, a.deadline) << name;
  }
  // Identical contenders resolve by tenant id, not anything racy.
  EXPECT_EQ(result.Digest(), Run({a, b}, Config(8)).Digest());
}

TEST_F(ClusterSchedulerTest, TightDeadlineTriggersOnDemandTopUp) {
  TenantSpec spec = Tenant("rush", 30.0, 8);
  spec.deadline = 16 * kDay + 12 * kHour;
  const FleetResult result = Run({spec}, Config(2, 14));
  int od_slots = 0;
  for (const RoundRecord& rec : result.rounds) {
    od_slots += rec.on_demand;
  }
  EXPECT_GT(od_slots, 0);  // 2 spot slots cannot make 30h by hour 12.
  const TenantResult* t = result.Find("rush");
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->completed);
  EXPECT_TRUE(t->deadline_met);
}

TEST_F(ClusterSchedulerTest, CancellationDuringPrepYieldsNoUsefulWork) {
  TenantSpec spec = Tenant("gone", 50.0, 4);
  spec.cancel_at = 16 * kDay + 2 * kMinute;  // Inside the 5min prep delay.
  const FleetResult result = Run({spec}, Config(8, 4));
  const TenantResult* t = result.Find("gone");
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->admitted);
  EXPECT_TRUE(t->cancelled);
  EXPECT_FALSE(t->completed);
  EXPECT_DOUBLE_EQ(t->useful_hours, 0.0);
  // It still held (and paid for) the slots it was granted while preparing.
  EXPECT_GT(t->allocated_hours, 0.0);
  EXPECT_GT(t->cost, 0.0);
}

TEST_F(ClusterSchedulerTest, DigestIsByteIdenticalAcrossThreadCounts) {
  std::vector<TenantSpec> specs;
  for (int i = 0; i < 6; ++i) {
    TenantSpec spec = Tenant(TenantName(i), 300.0, 10);
    spec.active_fraction = 0.6;
    spec.demand_seed = 40 + static_cast<std::uint64_t>(i);
    if (i == 4) {
      spec.strategy = DemandStrategy::kInflate;
    }
    if (i == 5) {
      spec.strategy = DemandStrategy::kAlwaysMax;
    }
    specs.push_back(spec);
  }
  FleetConfig config = Config(14);
  config.threads = 1;
  const FleetResult serial = Run(specs, config);
  config.threads = 4;
  const FleetResult parallel = Run(specs, config);
  EXPECT_EQ(serial.ToCsv(), parallel.ToCsv());
  EXPECT_EQ(serial.Digest(), parallel.Digest());
}

TEST_F(ClusterSchedulerTest, EmitsPerTenantMetricsAndRoundSpans) {
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  scheduler_->SetObservability(&tracer, &metrics);
  const FleetConfig config = Config(8, 6);
  Run({Tenant("a", 4.0, 4), Tenant("b", 4.0, 4)}, config);
  scheduler_->SetObservability(nullptr, nullptr);

  const obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Value("cluster.rounds"), 6.0);
  EXPECT_NE(snap.Find("cluster.utilization.mean"), nullptr);
  EXPECT_NE(snap.Find("cluster.fairness.jain_long"), nullptr);
  const obs::MetricPoint* a_hours =
      snap.Find("cluster.tenant.useful_hours", {{"tenant", "a"}});
  ASSERT_NE(a_hours, nullptr);
  EXPECT_NEAR(a_hours->value, 4.0, 1e-6);
  EXPECT_NE(snap.Find("cluster.tenant.credits", {{"tenant", "b"}}), nullptr);
}

}  // namespace
}  // namespace cluster
}  // namespace proteus
