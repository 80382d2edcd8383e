// The benchmark's three workloads, each driven through the runtime's
// public API as a closed loop: one caller issues the next clock only
// after the previous one (with its churn and boundary calls) returned.
//
//   mf_steady  MF on a static 1 reliable + 63 transient stage-3 cluster.
//   lda_churn  LDA on 4 reliable + 252 transient nodes under a seeded
//              add / evict / recover(d0..d3) / silent-node cycle.
//   spot_mlr   MLR under ProteusRuntime + BidBrain on a synthetic spot
//              market with missed-warning and silent failures.
//
// One pass builds a fresh instance of the workload (dataset, market,
// runtime), runs a fixed number of clocks, computes the objective and
// exports observability artifacts. Everything it makes derives from the
// seed, so two passes with the same seed must produce bit-identical
// virtual reports whatever the thread interleaving.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/spans.h"

namespace perfbench {

const std::vector<std::string>& WorkloadNames();

struct PassConfig {
  std::string workload;
  std::uint64_t seed = 1;
  bool tiny = false;      // Self-test sizes.
  bool parallel = true;   // false: sequential reference (no thread pool).
  SpanRecorder* spans = nullptr;  // Non-null: record spans (traced pass).
  std::string export_dir;         // Where workloads with obs sinks export.
};

struct ClockSample {
  double wall_ms = 0.0;      // One loop iteration, churn included.
  std::uint64_t digest = 0;  // Digest of the clock's virtual report.
};

// Per-pass quantities measured outside spans (counts and byte totals the
// public API exposes, plus timers around calls whose cost is only known
// after they return).
struct LayerTotals {
  double dataset_ms = 0.0;
  double runtime_ctor_ms = 0.0;
  double trace_gen_ms = 0.0;
  double estimator_train_ms = 0.0;
  double objective_ms = 0.0;
  double export_ms = 0.0;
  // Boundary calls that committed a durable checkpoint.
  std::int64_t checkpoint_writes = 0;
  double checkpoint_write_ms = 0.0;
  std::uint64_t checkpoint_bytes = 0;
  // Depth-3 (durable) restores.
  std::int64_t restores = 0;
  double restore_ms = 0.0;
  std::uint64_t restore_bytes = 0;
  std::uint64_t backup_sync_bytes = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t pull_bytes = 0;
  std::uint64_t push_bytes = 0;
  std::int64_t lost_clocks = 0;
  std::int64_t ledger_events = 0;
  std::int64_t trace_events = 0;
  std::int64_t evictions = 0;
  std::int64_t failures = 0;
  std::int64_t acquisitions = 0;
  std::int64_t bidbrain_decisions = 0;
  std::int64_t rpc_messages = 0;
};

struct PassResult {
  double setup_s = 0.0;  // Dataset, market and runtime construction.
  double loop_s = 0.0;   // The timed clock loop.
  double pass_s = 0.0;   // Setup + loop + objective + export.
  double objective = 0.0;
  std::int64_t items = 0;  // Input items handed to ProcessRange.
  std::vector<ClockSample> clocks;
  LayerTotals layer;
};

PassResult RunPass(const PassConfig& config);

// Worker threads the runtime's pool uses (mirrors AgileMLRuntime).
int PoolThreads();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
