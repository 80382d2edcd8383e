// Pins the runtime's per-clock comm accounting against hand-computed
// bytes: each distinct row a node's workers touch costs one fetch and one
// flush per clock (the write-back cache of §2.1), however many times and
// from however many of the node's ranges it is touched; a row served by
// the worker's own host is free on the fabric; a revoked worker charges
// nothing.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/agileml/runtime.h"
#include "src/obs/metrics.h"

namespace proteus {
namespace {

constexpr int kWide = 0;    // 4 floats: 4 * 4 + 16 = 32 wire bytes a row.
constexpr int kNarrow = 1;  // 2 floats: 2 * 4 + 16 = 24 wire bytes a row.

// Every item touches the same three rows, so each row repeats within a
// range and across all of a node's ranges.
//   (kWide, 0)   partition 0   read + update
//   (kWide, 1)   partition 1   read
//   (kNarrow, 3) partition 0   read + update
class KnownRowsApp : public MLApp {
 public:
  std::string Name() const override { return "known_rows"; }
  ModelInit DefineModel() const override {
    ModelInit init;
    init.tables.push_back({kWide, 8, 4, 0.0F, 0.0F});
    init.tables.push_back({kNarrow, 8, 2, 0.0F, 0.0F});
    return init;
  }
  std::int64_t NumItems() const override { return 8; }
  double CostPerItem() const override { return 1.0; }
  void ProcessRange(WorkerContext& ctx, std::int64_t begin, std::int64_t end) override {
    std::vector<float> narrow;
    const std::vector<float> wide_delta(4, 1.0F);
    const std::vector<float> narrow_delta(2, 1.0F);
    for (std::int64_t i = begin; i < end; ++i) {
      ctx.Read(kWide, 0);
      ctx.Read(kWide, 1);
      ctx.ReadInto(kNarrow, 3, narrow);
      ctx.Update(kWide, 0, wide_delta);
      ctx.Update(kNarrow, 3, narrow_delta);
    }
  }
  double ComputeObjective(const ModelStore& /*model*/) const override { return 0.0; }
};

void CheckKnownRowsClock(bool parallel) {
  AgileMLConfig config;
  config.num_partitions = 4;
  config.data_blocks = 8;  // One item a block.
  config.parallel_execution = parallel;
  // Stage 1 (2 transient : 2 reliable): the reliable nodes 0 and 1 serve
  // every partition and all four nodes run workers.
  std::vector<NodeInfo> nodes;
  for (NodeId id = 0; id < 4; ++id) {
    nodes.push_back({id, id < 2 ? Tier::kReliable : Tier::kTransient, 8, kInvalidAllocation});
  }
  KnownRowsApp app;
  AgileMLRuntime runtime(&app, config, nodes);
  obs::MetricsRegistry metrics;
  runtime.SetObservability(nullptr, &metrics);

  // Evicting node 3 hands its blocks 6 and 7 to nodes 0 and 1, which then
  // own two ranges each ({0,1},{6} and {2,3},{7}). The next clock absorbs
  // the eviction's queued transfers.
  runtime.Evict({3});
  runtime.RunClock();
  runtime.SetNodeRevoked(2);

  ASSERT_EQ(runtime.stage(), Stage::kStage1);
  ASSERT_EQ(runtime.roles().worker_nodes, (std::set<NodeId>{0, 1, 2}));
  ASSERT_EQ(runtime.roles().server.at(0), 0);
  ASSERT_EQ(runtime.roles().server.at(1), 1);
  ASSERT_EQ(runtime.data().RangesOf(0).size(), 2U);
  ASSERT_EQ(runtime.data().RangesOf(1).size(), 2U);

  obs::Counter* pull = metrics.GetCounter("agileml.pull.bytes");
  obs::Counter* push = metrics.GetCounter("agileml.push.bytes");
  const std::uint64_t pull_before = pull->value();
  const std::uint64_t push_before = push->value();
  const IterationReport report = runtime.RunClock();

  // Per active worker: pulls 32 + 32 + 24 = 88 B, pushes 32 + 24 = 56 B,
  // whoever serves them; the revoked node 2 adds nothing.
  EXPECT_EQ(pull->value() - pull_before, 2U * 88U);
  EXPECT_EQ(push->value() - push_before, 2U * 56U);

  // Node 0 serves partition 0 to itself (free) and pulls (kWide, 1)
  // from node 1. Node 1 serves partition 1 to itself, pulls (kWide, 0)
  // and (kNarrow, 3) from node 0 and pushes both back to it.
  const Fabric& fabric = runtime.fabric();
  EXPECT_EQ(fabric.Traffic(0).fg_egress, 32U + 24U);
  EXPECT_EQ(fabric.Traffic(0).fg_ingress, 32U + 32U + 24U);
  EXPECT_EQ(fabric.Traffic(1).fg_egress, 32U + 32U + 24U);
  EXPECT_EQ(fabric.Traffic(1).fg_ingress, 32U + 24U);
  EXPECT_EQ(fabric.Traffic(2).fg_ingress, 0U);
  EXPECT_EQ(fabric.Traffic(2).fg_egress, 0U);
  for (const NodeId id : {0, 1, 2}) {
    EXPECT_EQ(fabric.Traffic(id).bg_ingress, 0U) << "node " << id;
    EXPECT_EQ(fabric.Traffic(id).bg_egress, 0U) << "node " << id;
  }
  EXPECT_EQ(report.total_bytes, 2U * (32U + 24U) + 32U);
}

TEST(CommAccounting, DistinctRowsPerNodeChargedOnceOwnHostFreeRevokedSilent) {
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "sequential");
    CheckKnownRowsClock(parallel);
  }
}

}  // namespace
}  // namespace proteus
