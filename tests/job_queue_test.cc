#include <gtest/gtest.h>

#include <string>

#include "src/proteus/job_queue.h"

namespace proteus {
namespace {

class JobQueueTest : public ::testing::Test {
 protected:
  JobQueueTest() : catalog_(InstanceTypeCatalog::Default()) {
    SyntheticTraceConfig config;
    config.spikes_per_day = 3.0;
    Rng rng(81);
    traces_ = TraceStore::GenerateSynthetic(catalog_, {"z0", "z1"}, 40 * kDay, config, rng);
    estimator_.Train(traces_, 0.0, 15 * kDay);
    sim_ = std::make_unique<JobQueueSimulator>(&catalog_, &traces_, &estimator_);
  }

  std::vector<QueuedJob> Queue(int n, SimDuration each) const {
    std::vector<QueuedJob> jobs;
    for (int i = 0; i < n; ++i) {
      jobs.push_back({"job" + std::to_string(i),
                      JobSpec::ForReferenceDuration(catalog_, "c4.2xlarge", 64, each, 0.95)});
    }
    return jobs;
  }

  SchemeConfig Config() const {
    SchemeConfig config;
    config.bidbrain.max_spot_instances = 128;
    return config;
  }

  InstanceTypeCatalog catalog_;
  TraceStore traces_;
  EvictionEstimator estimator_;
  std::unique_ptr<JobQueueSimulator> sim_;
};

TEST_F(JobQueueTest, AllJobsComplete) {
  const JobQueueResult result = sim_->Run(Queue(3, 2 * kHour), Config(), 16 * kDay);
  ASSERT_EQ(result.jobs.size(), 3u);
  for (const auto& job : result.jobs) {
    EXPECT_TRUE(job.completed) << job.name;
    EXPECT_GT(job.runtime, 0.0);
  }
  EXPECT_GT(result.makespan, 0.0);
}

TEST_F(JobQueueTest, PerJobCostsApproximateTotal) {
  const JobQueueResult result = sim_->Run(Queue(3, 2 * kHour), Config(), 16 * kDay);
  Money per_job = 0.0;
  for (const auto& job : result.jobs) {
    per_job += job.cost;
  }
  // Per-job windows cover the whole queue; the difference from the true
  // total is the drain tail (hours still ticking after the last job) and
  // eviction refunds, both bounded.
  EXPECT_LE(per_job, result.total_cost + result.shutdown_refunds + 1e-6);
  EXPECT_GT(per_job, result.total_cost * 0.5);
}

TEST_F(JobQueueTest, LaterJobsReuseWarmFootprint) {
  // The first job pays the ramp-up; subsequent identical jobs should not
  // be slower on average (they inherit a running footprint).
  const JobQueueResult result = sim_->Run(Queue(4, 2 * kHour), Config(), 16 * kDay);
  ASSERT_EQ(result.jobs.size(), 4u);
  const SimDuration first = result.jobs[0].runtime;
  for (std::size_t i = 1; i < result.jobs.size(); ++i) {
    EXPECT_LT(result.jobs[i].runtime, first * 1.5);
  }
}

TEST_F(JobQueueTest, QueueIsCheaperPerJobThanStandalone) {
  // Amortizing ramp-up and leftover hours across jobs should not make
  // per-job cost worse than 1/n of the total.
  const JobQueueResult q3 = sim_->Run(Queue(3, 2 * kHour), Config(), 16 * kDay);
  const JobQueueResult q1 = sim_->Run(Queue(1, 2 * kHour), Config(), 16 * kDay);
  const Money per_job_q3 = q3.total_cost / 3;
  EXPECT_LT(per_job_q3, q1.total_cost * 1.2);
}

TEST_F(JobQueueTest, SingleJobQueueMatchesStandaloneProteusRun) {
  // A one-job queue runs the same loop, footprint and BidBrain as a
  // standalone kProteus run; only the billing differs (the queue drains
  // spot to the hour end).
  const JobSimulator standalone(&catalog_, &traces_, &estimator_);
  const std::vector<QueuedJob> jobs = Queue(1, 2 * kHour);
  for (int i = 0; i < 8; ++i) {
    const SimTime start = (16 + 2 * i) * kDay + i * 7 * kHour;
    const JobQueueResult queued = sim_->Run(jobs, Config(), start);
    const JobResult single = standalone.Run(SchemeKind::kProteus, jobs[0].spec, Config(), start);
    ASSERT_EQ(queued.jobs.size(), 1u);
    EXPECT_EQ(queued.jobs[0].completed, single.completed) << "start " << i;
    EXPECT_EQ(queued.jobs[0].runtime, single.runtime) << "start " << i;
    EXPECT_EQ(queued.jobs[0].evictions, single.evictions) << "start " << i;
    EXPECT_EQ(queued.makespan, single.runtime) << "start " << i;
  }
}

TEST_F(JobQueueTest, CarriedFootprintGolden) {
  // Pins a four-job queue at two starts, hex-exact: each job runs over the
  // footprint the previous one left (allocations, pending terminations,
  // the pause and the next decision point), not a rebuilt one.
  struct JobGolden {
    SimDuration runtime;
    Money cost;
    int evictions;
  };
  struct Golden {
    int day;  // start = day days + 3 hours.
    Money total_cost;
    SimDuration makespan;
    Money refunds;
    JobGolden jobs[4];
  };
  const Golden goldens[] = {
      {16, 0x1.3cp+5, 0x1.7f215555555p+13, 0x1.049ba5e353f7dp+4,
       {{0x1.312e8ba2e8cp+12, 0x1.03f7c9c3954fbp+2, 24},
        {0x1.534c0d4c77ap+11, 0x1.7a47fbdc590e2p+3, 7},
        {0x1.17a18618618p+11, 0x1.d068e65d3ee2fp+3, 0},
        {0x1.2f3aaaaaaaap+11, 0x1.cec5b35d87fabp+3, 0}}},
      {19, 0x1.a3851eb851eb8p+4, 0x1.73ce00000008p+13, 0x1.bb645a1cac083p+3,
       {{0x1.7afp+11, 0x1.eafe8a02054c2p+1, 5},
        {0x1.875p+11, 0x1.d192308d1ef04p+3, 6},
        {0x1.02b55555556p+11, 0x1.c39fb3654c82dp+3, 1},
        {0x1.ca42aaaaaacp+11, 0x1.9941359f069d5p+2, 18}}},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE("day " + std::to_string(g.day));
    const JobQueueResult result =
        sim_->Run(Queue(4, 2 * kHour), Config(), g.day * kDay + 3 * kHour);
    EXPECT_EQ(result.total_cost, g.total_cost);
    EXPECT_EQ(result.makespan, g.makespan);
    EXPECT_EQ(result.shutdown_refunds, g.refunds);
    ASSERT_EQ(result.jobs.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(result.jobs[i].completed) << i;
      EXPECT_EQ(result.jobs[i].runtime, g.jobs[i].runtime) << i;
      EXPECT_EQ(result.jobs[i].cost, g.jobs[i].cost) << i;
      EXPECT_EQ(result.jobs[i].evictions, g.jobs[i].evictions) << i;
    }
  }
}

TEST_F(JobQueueTest, ShutdownWaitsForBillingHours) {
  const JobQueueResult result = sim_->Run(Queue(1, 2 * kHour), Config(), 16 * kDay);
  EXPECT_GE(result.shutdown_refunds, 0.0);
}

TEST_F(JobQueueTest, EmptyQueueHasNoFootprintAndNoCost) {
  const JobQueueResult result = sim_->Run({}, Config(), 16 * kDay);
  EXPECT_TRUE(result.jobs.empty());
  EXPECT_DOUBLE_EQ(result.total_cost, 0.0);
  EXPECT_DOUBLE_EQ(result.shutdown_refunds, 0.0);
  EXPECT_DOUBLE_EQ(result.makespan, 0.0);
}

}  // namespace
}  // namespace proteus
