// Parallel and sequential execution must produce the same virtual
// results. One seeded churn schedule (bulk additions, warned evictions,
// unwarned failures and zero-warning revocations the detector confirms)
// runs twice, once on the worker thread pool and once sequentially, for
// MF and for LDA.
// Every IterationReport field except the objective, and every node's
// per-clock fabric traffic, must match bit for bit: which rows a node
// touches does not depend on thread interleaving, only the float sums
// on shared rows do.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/agileml/runtime.h"
#include "src/apps/datasets.h"
#include "src/apps/lda.h"
#include "src/apps/mf.h"
#include "src/common/rng.h"

namespace proteus {
namespace {

// Every virtual output of one clock, doubles in hex so equal means
// bit-identical.
std::string DescribeClock(const AgileMLRuntime& runtime, const IterationReport& r) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "clock=%lld duration=%a compute=%a comm=%a bottleneck=%a node=%lld "
                "critical=%a/%a bytes=%llu stall=%a stage=%d workers=%d dead=",
                static_cast<long long>(r.clock), r.duration, r.max_compute, r.max_comm,
                r.bottleneck_time, static_cast<long long>(r.bottleneck_node),
                r.critical_compute, r.critical_transport,
                static_cast<unsigned long long>(r.total_bytes), r.stall,
                static_cast<int>(r.stage), r.worker_nodes);
  out += buf;
  for (const NodeId id : r.confirmed_dead) {
    out += std::to_string(id) + ",";
  }
  for (const NodeInfo& node : runtime.nodes()) {
    if (!runtime.fabric().HasNode(node.id)) {
      continue;
    }
    const NodeTraffic& t = runtime.fabric().Traffic(node.id);
    std::snprintf(buf, sizeof(buf), " n%lld:%llu/%llu/%llu/%llu",
                  static_cast<long long>(node.id), static_cast<unsigned long long>(t.fg_ingress),
                  static_cast<unsigned long long>(t.fg_egress),
                  static_cast<unsigned long long>(t.bg_ingress),
                  static_cast<unsigned long long>(t.bg_egress));
    out += buf;
  }
  return out;
}

class ParallelDeterminism : public ::testing::TestWithParam<int> {
 protected:
  ParallelDeterminism() {
    RatingsConfig rc;
    rc.users = 300;
    rc.items = 150;
    rc.ratings = 8000;
    data_ = GenerateRatings(rc);
    CorpusConfig cc;
    cc.docs = 600;
    cc.vocab = 400;
    cc.true_topics = 6;
    cc.avg_doc_len = 30;
    corpus_ = GenerateCorpus(cc);
  }

  // Runs the seed's churn schedule on a fresh app; returns one description
  // per clock.
  std::vector<std::string> RunSchedule(MLApp* app, bool parallel) const {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
    AgileMLConfig config;
    config.num_partitions = 16;
    config.data_blocks = 64;
    config.backup_sync_every = 2;
    config.parallel_execution = parallel;
    config.detector.enabled = true;
    config.detector.suspect_after = 1;
    config.detector.confirm_after = 2;
    config.seed = static_cast<std::uint64_t>(GetParam());
    std::vector<NodeInfo> initial;
    for (NodeId id = 0; id < 2; ++id) {
      initial.push_back({id, Tier::kReliable, 8, kInvalidAllocation});
    }
    for (NodeId id = 100; id < 106; ++id) {
      initial.push_back({id, Tier::kTransient, 8, kInvalidAllocation});
    }
    AgileMLRuntime runtime(app, config, initial);
    NodeId next_id = 1000;
    std::vector<std::string> clocks;
    auto run_clocks = [&](int n) {
      for (int c = 0; c < n; ++c) {
        const IterationReport report = runtime.RunClock();
        clocks.push_back(DescribeClock(runtime, report));
      }
    };

    run_clocks(2);
    for (int step = 0; step < 12; ++step) {
      std::vector<NodeId> healthy_transient;
      for (const NodeInfo& node : runtime.ReadyNodes()) {
        if (!node.reliable() && !runtime.IsRevokedNode(node.id) &&
            !runtime.IsSilencedNode(node.id)) {
          healthy_transient.push_back(node.id);
        }
      }
      // The first four steps walk through every kind of churn once.
      const int kind = step < 4 ? step : static_cast<int>(rng.UniformInt(0, 3));
      if (kind == 0 || healthy_transient.size() < 2) {
        std::vector<NodeInfo> added;
        const int count = static_cast<int>(rng.UniformInt(2, 6));
        for (int i = 0; i < count; ++i) {
          added.push_back({next_id++, Tier::kTransient, 8, kInvalidAllocation});
        }
        runtime.AddNodes(added);
      } else {
        rng.Shuffle(healthy_transient);
        const NodeId victim = healthy_transient.front();
        if (kind == 1) {
          runtime.Evict({victim});
        } else if (kind == 2) {
          runtime.Fail({victim});
        } else {
          runtime.SetNodeRevoked(victim);
        }
      }
      run_clocks(static_cast<int>(rng.UniformInt(1, 3)));
    }
    return clocks;
  }

  RatingsDataset data_;
  CorpusDataset corpus_;
};

void ExpectSameClocks(const std::vector<std::string>& parallel,
                      const std::vector<std::string>& sequential) {
  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(parallel[i], sequential[i]) << "clock " << i;
  }
}

TEST_P(ParallelDeterminism, ChurnedScheduleMatchesSequentialClockByClock) {
  MfConfig mc;
  mc.rank = 8;
  MatrixFactorizationApp sequential_app(&data_, mc);
  MatrixFactorizationApp parallel_app(&data_, mc);
  const std::vector<std::string> sequential = RunSchedule(&sequential_app, false);
  ExpectSameClocks(RunSchedule(&parallel_app, true), sequential);
}

TEST_P(ParallelDeterminism, LdaChurnedScheduleMatchesSequentialClockByClock) {
  LdaConfig lc;
  lc.topics = 16;
  LdaApp sequential_app(&corpus_, lc);
  LdaApp parallel_app(&corpus_, lc);
  const std::vector<std::string> sequential = RunSchedule(&sequential_app, false);
  ExpectSameClocks(RunSchedule(&parallel_app, true), sequential);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminism, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace proteus
