// Micro-benchmarks (google-benchmark) for the hot operations of the
// parameter-server substrate: row reads/updates, backup sync, checkpoint
// serialize/write/restore, fabric accounting, cost-model evaluation, and
// one MF, one MLR and one LDA clock through the runtime; plus the market setup
// (synthetic trace generation and eviction-estimator training).
//
// Two modes:
//   micro_ops [gbench flags]          normal google-benchmark run
//   micro_ops --bench_json=PATH       self-timed headline numbers only,
//                                     written as JSON (the CI artifact)
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/support.h"
#include "src/bidbrain/cost_model.h"
#include "src/bidbrain/eviction_estimator.h"
#include "src/market/trace_gen.h"
#include "src/ps/checkpoint_store.h"
#include "src/ps/model.h"
#include "src/rpc/messages.h"

namespace proteus {
namespace {

ModelStore MakeStore() {
  return ModelStore({{0, 10000, 128, 0.0F, 0.1F}}, 32, 7);
}

void BM_ModelReadRow(benchmark::State& state) {
  ModelStore store = MakeStore();
  std::vector<float> row;
  std::int64_t r = 0;
  for (auto _ : state) {
    store.ReadRow(0, r, row);
    benchmark::DoNotOptimize(row.data());
    r = (r + 1) % 10000;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 128 * 4);
}
BENCHMARK(BM_ModelReadRow);

void BM_ModelApplyDelta(benchmark::State& state) {
  ModelStore store = MakeStore();
  const std::vector<float> delta(128, 0.5F);
  std::int64_t r = 0;
  for (auto _ : state) {
    store.ApplyDelta(0, r, delta);
    r = (r + 1) % 10000;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 128 * 4);
}
BENCHMARK(BM_ModelApplyDelta);

void BM_BackupSync(benchmark::State& state) {
  ModelStore store = MakeStore();
  store.EnableBackups();
  const std::vector<float> delta(128, 0.5F);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::int64_t r = 0; r < 1000; ++r) {
      store.ApplyDelta(0, r, delta);
    }
    state.ResumeTiming();
    for (PartitionId p = 0; p < 32; ++p) {
      benchmark::DoNotOptimize(store.SyncPartitionToBackup(p));
    }
  }
}
BENCHMARK(BM_BackupSync);

// --- The PS hot path end to end: apply a clock's worth of updates and
// serialize the resulting push traffic as per-row UpdateParamMsg frames
// (one allocation per row), the way the runtime accounts it.
constexpr int kHotRows = 4096;
constexpr int kHotCols = 64;

ModelStore MakeHotStore() {
  return ModelStore({{0, 10000, kHotCols, 0.0F, 0.1F}}, 32, 7);
}

// One clock's worth of per-row apply + encode; returns the wire bytes.
std::uint64_t ApplyAndSerialize(ModelStore& store, const std::vector<float>& delta) {
  std::uint64_t bytes = 0;
  for (std::int64_t r = 0; r < kHotRows; ++r) {
    store.ApplyDelta(0, r, delta);
    UpdateParamMsg msg;
    msg.table = 0;
    msg.row = r;
    msg.delta = delta;
    bytes += EncodeMessage(msg).size();
  }
  return bytes;
}

void BM_ApplySerialize(benchmark::State& state) {
  ModelStore store = MakeHotStore();
  const std::vector<float> delta(kHotCols, 0.5F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApplyAndSerialize(store, delta));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kHotRows);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kHotRows * kHotCols * 4);
}
BENCHMARK(BM_ApplySerialize);

// --- Durable checkpoint path: serialize the model, push it
// through the two-phase CheckpointStore commit, and restore it back.
// Bytes/sec is the headline; the store-write bench measures
// frame+CRC+manifest cost.

void PopulateStore(ModelStore& store) {
  const std::vector<float> delta(kHotCols, 0.5F);
  for (std::int64_t r = 0; r < kHotRows; ++r) {
    store.ApplyDelta(0, r, delta);
  }
}

void BM_CheckpointSerialize(benchmark::State& state) {
  ModelStore store = MakeHotStore();
  PopulateStore(store);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    bytes = store.SerializeCheckpoint().size();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CheckpointSerialize);

void BM_CheckpointStoreWrite(benchmark::State& state) {
  ModelStore store = MakeHotStore();
  PopulateStore(store);
  const std::vector<std::uint8_t> blob = store.SerializeCheckpoint();
  MemDurableDevice device;
  CheckpointStore ck(&device);
  Clock clock = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ck.Write(blob, ++clock).committed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blob.size()));
}
BENCHMARK(BM_CheckpointStoreWrite);

void BM_CheckpointRestore(benchmark::State& state) {
  ModelStore store = MakeHotStore();
  PopulateStore(store);
  MemDurableDevice device;
  CheckpointStore ck(&device);
  const CheckpointWriteResult written = ck.Write(store.SerializeCheckpoint(), 1);
  for (auto _ : state) {
    const auto loaded = ck.ReadNewestValid();
    store.RestoreCheckpoint(loaded->payload);
    benchmark::DoNotOptimize(loaded->bytes_read);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(written.bytes_written));
}
BENCHMARK(BM_CheckpointRestore);

void BM_FabricRecordTransfer(benchmark::State& state) {
  Fabric fabric(1.25e8);
  for (NodeId n = 0; n < 64; ++n) {
    fabric.AddNode(n);
  }
  fabric.BeginRound();
  NodeId src = 0;
  for (auto _ : state) {
    fabric.RecordTransfer(src, (src + 1) % 64, 1024);
    src = (src + 1) % 64;
  }
}
BENCHMARK(BM_FabricRecordTransfer);

void BM_CostModelEvaluate(benchmark::State& state) {
  std::vector<AllocationPlan> plans;
  for (int i = 0; i < 8; ++i) {
    AllocationPlan plan;
    plan.market = {"z0", "c4.xlarge"};
    plan.count = 16;
    plan.hourly_price = 0.05 + 0.01 * i;
    plan.beta = 0.1 * i / 8.0;
    plan.omega = kHour;
    plan.work_per_hour = 4.0;
    plans.push_back(plan);
  }
  const AppProfile app;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CostModel::ExpectedCostPerWork(plans, app, true));
  }
}
BENCHMARK(BM_CostModelEvaluate);

void BM_MfProcessClock(benchmark::State& state) {
  RatingsConfig rc;
  rc.users = 2000;
  rc.items = 500;
  rc.ratings = 20000;
  const RatingsDataset data = GenerateRatings(rc);
  MfConfig mc;
  mc.rank = 64;
  MatrixFactorizationApp app(&data, mc);
  AgileMLConfig config;
  config.num_partitions = 8;
  config.parallel_execution = false;
  AgileMLRuntime runtime(&app, config, {{0, Tier::kReliable, 8, kInvalidAllocation}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime.RunClock().duration);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * rc.ratings);
}
BENCHMARK(BM_MfProcessClock);

// One single-node sequential MLR clock at the spot_mlr benchmark's model
// shape (16 classes x 512 dims), so nearly all of it is the dense kernel.
struct MlrClockFixture {
  static FeaturesConfig Features() {
    FeaturesConfig fc;
    fc.samples = 4096;
    fc.dim = 512;
    fc.classes = 16;
    return fc;
  }
  static AgileMLConfig Config() {
    AgileMLConfig config;
    config.num_partitions = 8;
    config.parallel_execution = false;
    return config;
  }

  FeaturesDataset data = GenerateFeatures(Features());
  MultinomialLogRegApp app{&data, MlrConfig{}};
  AgileMLRuntime runtime{&app, Config(), {{0, Tier::kReliable, 8, kInvalidAllocation}}};
};

void BM_MlrProcessClock(benchmark::State& state) {
  MlrClockFixture fixture;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.runtime.RunClock().duration);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * fixture.data.size());
}
BENCHMARK(BM_MlrProcessClock);

// One single-node sequential LDA Gibbs sweep at the lda_churn benchmark's
// corpus shape (8000 words, 64 topics, ~120 tokens per document), so
// nearly all of it is the sampler. The first clock, which only assigns
// initial topics, is left out of every measurement.
struct LdaClockFixture {
  static CorpusConfig Corpus() {
    CorpusConfig cc;
    cc.docs = 1000;
    cc.vocab = 8000;
    cc.true_topics = 20;
    cc.avg_doc_len = 120;
    return cc;
  }
  static AgileMLConfig Config() {
    AgileMLConfig config;
    config.num_partitions = 8;
    config.parallel_execution = false;
    return config;
  }

  LdaClockFixture() { runtime.RunClock(); }

  CorpusDataset data = GenerateCorpus(Corpus());
  LdaApp app{&data, LdaConfig{}};
  AgileMLRuntime runtime{&app, Config(), {{0, Tier::kReliable, 8, kInvalidAllocation}}};
};

void BM_LdaProcessClock(benchmark::State& state) {
  LdaClockFixture fixture;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.runtime.RunClock().duration);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          fixture.data.num_docs());
}
BENCHMARK(BM_LdaProcessClock);

// --- Market setup at the spot_mlr benchmark's shape: 4 zones x the 6
// default instance types, 90 days of synthetic prices, the estimator
// trained on the first 45.
constexpr SimDuration kMarketHorizon = 90 * kDay;

TraceStore MakeMarketTraces() {
  SyntheticTraceConfig config;
  config.spikes_per_day = 3.0;
  Rng rng(1);
  return TraceStore::GenerateSynthetic(InstanceTypeCatalog::Default(),
                                       {"us-east-1a", "us-east-1b", "us-east-1c", "us-east-1d"},
                                       kMarketHorizon, config, rng);
}

std::size_t TotalPoints(const TraceStore& traces) {
  std::size_t points = 0;
  for (const MarketKey& key : traces.Keys()) {
    points += traces.Get(key).size();
  }
  return points;
}

void BM_TraceGen(benchmark::State& state) {
  std::size_t points = 0;
  for (auto _ : state) {
    points = TotalPoints(MakeMarketTraces());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(points));
}
BENCHMARK(BM_TraceGen)->Unit(benchmark::kMillisecond);

void BM_EstimatorTrain(benchmark::State& state) {
  const TraceStore traces = MakeMarketTraces();
  for (auto _ : state) {
    EvictionEstimator estimator;
    estimator.Train(traces, 0.0, kMarketHorizon / 2);
    benchmark::DoNotOptimize(estimator.trained());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(traces.Keys().size()));
}
BENCHMARK(BM_EstimatorTrain)->Unit(benchmark::kMillisecond);

// --- --bench_json mode: the headline numbers CI tracks as an artifact.
// Self-timed (steady_clock) instead of going through google-benchmark so
// the output schema is ours and stays stable across benchmark-library
// upgrades.

double SecondsPerIter(const std::function<void()>& body) {
  using clock = std::chrono::steady_clock;
  body();  // Warm-up: touch lazily-materialized rows, fill caches.
  int iters = 0;
  const clock::time_point begin = clock::now();
  clock::time_point now = begin;
  // At least 3 iterations and ~200ms of wall time.
  while (iters < 3 || std::chrono::duration<double>(now - begin).count() < 0.2) {
    body();
    ++iters;
    now = clock::now();
  }
  return std::chrono::duration<double>(now - begin).count() / iters;
}

std::vector<bench::BenchJsonRow> RunJsonBenches() {
  std::vector<bench::BenchJsonRow> rows;

  // The runtime's per-row apply + push encode, in rows/s.
  {
    ModelStore store = MakeHotStore();
    const std::vector<float> delta(kHotCols, 0.5F);
    const double spi =
        SecondsPerIter([&] { benchmark::DoNotOptimize(ApplyAndSerialize(store, delta)); });
    rows.push_back({"apply_serialize", "rows_per_sec", kHotRows / spi, "rows/s"});
  }

  // Durable checkpoint path: serialize, store-write (full epochs through
  // the 2-phase commit), restore.
  {
    ModelStore store = MakeHotStore();
    PopulateStore(store);
    const double bytes = static_cast<double>(store.SerializeCheckpoint().size());
    const double spi =
        SecondsPerIter([&] { benchmark::DoNotOptimize(store.SerializeCheckpoint().size()); });
    rows.push_back({"checkpoint_serialize", "mb_per_sec", bytes / spi / 1e6, "MB/s"});
  }
  {
    ModelStore store = MakeHotStore();
    PopulateStore(store);
    const std::vector<std::uint8_t> blob = store.SerializeCheckpoint();
    const double bytes = static_cast<double>(blob.size());
    MemDurableDevice device;
    CheckpointStore ck(&device);
    Clock clock = 0;
    const double spi =
        SecondsPerIter([&] { benchmark::DoNotOptimize(ck.Write(blob, ++clock).committed); });
    rows.push_back({"checkpoint_store_write", "mb_per_sec", bytes / spi / 1e6, "MB/s"});
  }
  {
    ModelStore store = MakeHotStore();
    PopulateStore(store);
    MemDurableDevice device;
    CheckpointStore ck(&device);
    const CheckpointWriteResult written = ck.Write(store.SerializeCheckpoint(), 1);
    const double bytes = static_cast<double>(written.bytes_written);
    const double spi = SecondsPerIter([&] {
      const auto loaded = ck.ReadNewestValid();
      store.RestoreCheckpoint(loaded->payload);
      benchmark::DoNotOptimize(loaded->bytes_read);
    });
    rows.push_back({"checkpoint_restore", "mb_per_sec", bytes / spi / 1e6, "MB/s"});
  }

  // One MLR clock through the runtime, in samples/s.
  {
    MlrClockFixture fixture;
    const double spi = SecondsPerIter(
        [&] { benchmark::DoNotOptimize(fixture.runtime.RunClock().duration); });
    rows.push_back({"mlr_process_clock", "items_per_sec",
                    static_cast<double>(fixture.data.size()) / spi, "items/s"});
  }
  // One LDA Gibbs sweep through the runtime, in documents/s.
  {
    LdaClockFixture fixture;
    const double spi = SecondsPerIter(
        [&] { benchmark::DoNotOptimize(fixture.runtime.RunClock().duration); });
    rows.push_back({"lda_process_clock", "items_per_sec",
                    static_cast<double>(fixture.data.num_docs()) / spi, "items/s"});
  }

  // Market setup: synthetic price points generated per second, and
  // markets trained per second.
  {
    std::size_t points = 0;
    const double spi = SecondsPerIter([&] { points = TotalPoints(MakeMarketTraces()); });
    rows.push_back({"trace_gen", "points_per_sec", static_cast<double>(points) / spi, "points/s"});
  }
  {
    const TraceStore traces = MakeMarketTraces();
    const double spi = SecondsPerIter([&] {
      EvictionEstimator estimator;
      estimator.Train(traces, 0.0, kMarketHorizon / 2);
      benchmark::DoNotOptimize(estimator.trained());
    });
    rows.push_back({"estimator_train", "markets_per_sec",
                    static_cast<double>(traces.Keys().size()) / spi, "markets/s"});
  }
  return rows;
}

int WriteMicroOpsJson(const std::string& path) {
  return bench::WriteBenchJson(path, "micro_ops", RunJsonBenches()) ? 0 : 1;
}

}  // namespace
}  // namespace proteus

int main(int argc, char** argv) {
  const std::string json_path = proteus::bench::TakeFlag(argc, argv, "bench_json");
  if (!json_path.empty()) {
    return proteus::WriteMicroOpsJson(json_path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
