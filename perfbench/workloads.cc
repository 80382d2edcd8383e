#include "perfbench/workloads.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "bench/support.h"
#include "src/agileml/recovery_manager.h"
#include "src/agileml/runtime.h"
#include "src/apps/datasets.h"
#include "src/apps/lda.h"
#include "src/apps/mf.h"
#include "src/apps/mlr.h"
#include "src/bidbrain/eviction_estimator.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/market/instance_type.h"
#include "src/market/trace_gen.h"
#include "src/market/trace_store.h"
#include "src/obs/ledger.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/proteus/proteus_runtime.h"
#include "src/ps/checkpoint_store.h"

namespace perfbench {

using namespace proteus;

namespace {

// Independent seed streams derived from the benchmark seed.
enum Stream : std::uint64_t { kDataStream = 1, kRuntimeStream, kMarketStream, kChurnStream };

std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + stream * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// FNV-1a over the raw bytes of each value (doubles by bit pattern).
class Digest {
 public:
  template <typename T>
  Digest& Add(T value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001B3ULL;
    }
    return *this;
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

double MsSince(std::int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e6; }

// Runs fn inside a span named `name` when tracing; spans recorded on the
// pool threads meanwhile take this span as their parent.
template <typename Fn>
auto Traced(SpanRecorder* spans, const char* name, int parent, Fn&& fn) {
  if (spans == nullptr) {
    return fn();
  }
  struct Closer {
    SpanRecorder* spans;
    const char* name;
    int id;
    int parent;
    double start_s;
    ~Closer() {
      spans->set_ambient_parent(-1);
      spans->Record(name, id, parent, start_s, spans->Now());
    }
  } closer{spans, name, spans->NewId(), parent, spans->Now()};
  spans->set_ambient_parent(closer.id);
  return fn();
}

// Same, for calls whose wall time the pass needs in both modes.
template <typename Fn>
double TimedMs(SpanRecorder* spans, const char* name, int parent, Fn&& fn) {
  const std::int64_t start = NowNs();
  Traced(spans, name, parent, std::forward<Fn>(fn));
  return MsSince(start);
}

// Forwarding MLApp decorator: counts the items handed to ProcessRange and,
// on traced passes, records each call as an "apps.process_range" span
// under the RunClock/Step span the benchmark loop is blocked in.
class TimedApp final : public MLApp {
 public:
  TimedApp(MLApp* inner, SpanRecorder* spans) : inner_(inner), spans_(spans) {}

  std::string Name() const override { return inner_->Name(); }
  ModelInit DefineModel() const override { return inner_->DefineModel(); }
  std::int64_t NumItems() const override { return inner_->NumItems(); }
  double CostPerItem() const override { return inner_->CostPerItem(); }
  double ComputeObjective(const ModelStore& model) const override {
    return inner_->ComputeObjective(model);
  }
  void ProcessRange(WorkerContext& ctx, std::int64_t begin, std::int64_t end) override {
    items_.fetch_add(end - begin, std::memory_order_relaxed);
    if (spans_ == nullptr) {
      inner_->ProcessRange(ctx, begin, end);
      return;
    }
    const int parent = spans_->ambient_parent();
    const double start = spans_->Now();
    inner_->ProcessRange(ctx, begin, end);
    spans_->Record("apps.process_range", spans_->NewId(), parent, start, spans_->Now());
  }

  std::int64_t items() const { return items_.load(std::memory_order_relaxed); }

 private:
  MLApp* inner_;
  SpanRecorder* spans_;
  std::atomic<std::int64_t> items_{0};
};

// Forwarding DurableDevice decorator counting the bytes the checkpoint
// store writes.
class CountingDevice final : public DurableDevice {
 public:
  explicit CountingDevice(DurableDevice* inner) : inner_(inner) {}

  bool Write(const std::string& name, std::span<const std::uint8_t> bytes) override {
    bytes_written_ += bytes.size();
    return inner_->Write(name, bytes);
  }
  std::optional<std::vector<std::uint8_t>> Read(const std::string& name) const override {
    return inner_->Read(name);
  }
  bool Delete(const std::string& name) override { return inner_->Delete(name); }
  bool Rename(const std::string& from, const std::string& to) override {
    return inner_->Rename(from, to);
  }
  std::vector<std::string> List() const override { return inner_->List(); }

  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  DurableDevice* inner_;
  std::uint64_t bytes_written_ = 0;
};

// In-memory observability sinks, exported at the end of a pass.
struct ObsSinks {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::EventLedger ledger;

  std::uint64_t Counter(const char* name) { return metrics.GetCounter(name)->value(); }

  void Export(const PassConfig& config, SpanRecorder* spans, LayerTotals& layer) {
    layer.ledger_events = static_cast<std::int64_t>(ledger.size());
    layer.trace_events = static_cast<std::int64_t>(tracer.size());
    layer.export_ms = TimedMs(spans, "obs.export", -1, [&] {
      const std::filesystem::path dir(config.export_dir);
      std::filesystem::create_directories(dir);
      const bool ok = tracer.WriteJson((dir / "trace.json").string()) &&
                      ledger.WriteJsonl((dir / "ledger.jsonl").string()) &&
                      metrics.Snapshot().WriteJson((dir / "metrics.json").string());
      PROTEUS_CHECK(ok) << "perfbench: obs export to " << dir.string() << " failed";
    });
  }
};

// The paper benches' Cluster-A, with the run's seed and execution mode.
AgileMLConfig ClusterA(const PassConfig& config, int num_partitions) {
  AgileMLConfig c = bench::ClusterAConfig(num_partitions);
  if (config.tiny) {
    c.data_blocks = 128;
  }
  c.seed = Mix(config.seed, kRuntimeStream);
  c.parallel_execution = config.parallel;
  return c;
}

// bench::MakeCluster's nodes, numbered on from next_id so that nodes added
// later get fresh ids.
std::vector<NodeInfo> FreshNodes(int reliable, int transient, NodeId& next_id) {
  std::vector<NodeInfo> nodes = bench::MakeCluster(reliable, transient);
  for (NodeInfo& node : nodes) {
    node.id = next_id++;
  }
  return nodes;
}

std::uint64_t ReportDigest(const IterationReport& report, const AgileMLRuntime& runtime) {
  return Digest()
      .Add(report.clock)
      .Add(report.duration)
      .Add(report.total_bytes)
      .Add(static_cast<int>(report.stage))
      .Add(report.worker_nodes)
      .Add(runtime.lost_clocks_total())
      .value();
}

// Runs `clocks` loop iterations; `body(i, root_span)` performs one and
// returns its virtual-report digest.
template <typename Body>
void RunLoop(const PassConfig& config, int clocks, PassResult& result, Body&& body) {
  SpanRecorder* spans = config.spans;
  const std::int64_t loop_start = NowNs();
  for (int i = 0; i < clocks; ++i) {
    const std::int64_t start = NowNs();
    const int root = spans != nullptr ? spans->NewId() : -1;
    const double root_start = spans != nullptr ? spans->Now() : 0.0;
    const std::uint64_t digest = body(i, root);
    if (spans != nullptr) {
      spans->Record("clock", root, -1, root_start, spans->Now());
    }
    result.clocks.push_back({MsSince(start), digest});
  }
  result.loop_s = static_cast<double>(NowNs() - loop_start) / 1e9;
}

// ---------------------------------------------------------------- mf_steady

PassResult RunMfSteady(const PassConfig& config) {
  const std::int64_t pass_start = NowNs();
  SpanRecorder* spans = config.spans;
  PassResult result;
  LayerTotals& layer = result.layer;

  RatingsConfig rc;
  rc.users = config.tiny ? 2000 : 30000;
  rc.items = config.tiny ? 200 : 2000;
  rc.ratings = config.tiny ? 10000 : 200000;
  rc.item_zipf = 1.01;  // Near-uniform item popularity: wide read sets.
  rc.sort_by_user = true;
  rc.seed = Mix(config.seed, kDataStream);
  RatingsDataset data;
  layer.dataset_ms = TimedMs(spans, "setup.dataset", -1, [&] { data = GenerateRatings(rc); });

  MfConfig mc;
  mc.rank = config.tiny ? 16 : 512;
  mc.learning_rate = 0.01;
  mc.regularization = 0.02;
  mc.objective_sample = config.tiny ? 2000 : 20000;
  MatrixFactorizationApp app(&data, mc);
  TimedApp timed(&app, spans);
  NodeId next_id = 0;
  std::unique_ptr<AgileMLRuntime> runtime;
  layer.runtime_ctor_ms = TimedMs(spans, "setup.runtime_ctor", -1, [&] {
    runtime = std::make_unique<AgileMLRuntime>(&timed, ClusterA(config, 32),
                                               FreshNodes(1, config.tiny ? 16 : 63, next_id));
  });
  // The workload runs without obs sinks; traced passes attach a metrics
  // registry only to read the byte counters.
  std::unique_ptr<obs::MetricsRegistry> metrics;
  if (spans != nullptr) {
    metrics = std::make_unique<obs::MetricsRegistry>();
    runtime->SetObservability(nullptr, metrics.get());
  }
  result.setup_s = static_cast<double>(NowNs() - pass_start) / 1e9;

  RunLoop(config, config.tiny ? 3 : 10, result, [&](int, int root) {
    const IterationReport report =
        Traced(spans, "agileml.run_clock", root, [&] { return runtime->RunClock(); });
    layer.net_bytes += report.total_bytes;
    return ReportDigest(report, *runtime);
  });

  layer.objective_ms = TimedMs(spans, "apps.objective", -1,
                               [&] { result.objective = runtime->ComputeObjective(); });
  layer.lost_clocks = runtime->lost_clocks_total();
  if (metrics != nullptr) {
    layer.pull_bytes = metrics->GetCounter("agileml.pull.bytes")->value();
    layer.push_bytes = metrics->GetCounter("agileml.push.bytes")->value();
    layer.backup_sync_bytes = metrics->GetCounter("agileml.backup_sync.bytes")->value();
  }
  result.items = timed.items();
  result.pass_s = static_cast<double>(NowNs() - pass_start) / 1e9;
  return result;
}

// ---------------------------------------------------------------- lda_churn

// Membership views the churn schedule picks victims from. Silenced nodes
// are never picked again: the detector owns them.
struct Membership {
  std::vector<NodeId> worker_only_transient;
  std::vector<NodeId> transient_servers;
  std::vector<NodeId> backup_only_reliable;
  int reliable = 0;   // Ready or preparing.
  int transient = 0;  // Ready or preparing.
};

Membership ViewOf(const AgileMLRuntime& runtime) {
  const RoleAssignment& roles = runtime.roles();
  std::set<NodeId> servers;
  std::set<NodeId> backups;
  for (const auto& [partition, node] : roles.server) {
    servers.insert(node);
  }
  for (const auto& [partition, node] : roles.backup) {
    backups.insert(node);
  }
  Membership view;
  for (const NodeInfo& node : runtime.nodes()) {
    (node.reliable() ? view.reliable : view.transient) += 1;
    if (!runtime.IsReadyNode(node.id) || runtime.IsSilencedNode(node.id)) {
      continue;
    }
    const bool server = servers.count(node.id) > 0;
    const bool backup = backups.count(node.id) > 0;
    if (node.reliable()) {
      if (backup && !server) {
        view.backup_only_reliable.push_back(node.id);
      }
    } else if (server && !backup) {
      view.transient_servers.push_back(node.id);
    } else if (!server && !backup && roles.worker_nodes.count(node.id) > 0) {
      view.worker_only_transient.push_back(node.id);
    }
  }
  return view;
}

template <typename T>
T Pick(const std::vector<T>& candidates, Rng& rng) {
  PROTEUS_CHECK(!candidates.empty()) << "perfbench: churn schedule found no candidate";
  return candidates[static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(candidates.size()) - 1))];
}

std::vector<NodeId> PickMany(std::vector<NodeId> nodes, int count, Rng& rng) {
  std::vector<NodeId> picked;
  for (int i = 0; i < count && !nodes.empty(); ++i) {
    const auto at = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(nodes.size()) - 1));
    picked.push_back(nodes[at]);
    nodes.erase(nodes.begin() + static_cast<std::ptrdiff_t>(at));
  }
  return picked;
}

constexpr const char* kRecoverSpan[4] = {"agileml.recover.d0", "agileml.recover.d1",
                                         "agileml.recover.d2", "agileml.recover.d3"};

PassResult RunLdaChurn(const PassConfig& config) {
  const std::int64_t pass_start = NowNs();
  SpanRecorder* spans = config.spans;
  PassResult result;
  LayerTotals& layer = result.layer;
  const int kReliable = 4;
  const int kTransient = config.tiny ? 60 : 252;
  const int kCycle = 8;

  CorpusConfig cc;
  cc.docs = config.tiny ? 400 : 6000;
  cc.vocab = config.tiny ? 600 : 8000;
  cc.true_topics = config.tiny ? 8 : 20;
  cc.avg_doc_len = config.tiny ? 40 : 120;
  cc.seed = Mix(config.seed, kDataStream);
  CorpusDataset data;
  layer.dataset_ms = TimedMs(spans, "setup.dataset", -1, [&] { data = GenerateCorpus(cc); });

  LdaConfig lc;
  lc.topics = config.tiny ? 16 : 64;  // 64 floats: 256 B rows.
  LdaApp app(&data, lc);
  TimedApp timed(&app, spans);
  AgileMLConfig ac = ClusterA(config, 64);
  ac.backup_sync_every = 3;  // Backup-promotion recoveries redo up to 2 clocks.
  ac.detector.enabled = true;
  ac.detector.suspect_after = 1;
  ac.detector.confirm_after = 2;
  NodeId next_id = 0;
  MemDurableDevice memory_device;
  CountingDevice device(&memory_device);
  CheckpointStore store(&device);
  ObsSinks sinks;
  std::unique_ptr<AgileMLRuntime> runtime;
  std::unique_ptr<RecoveryManager> recovery;
  layer.runtime_ctor_ms = TimedMs(spans, "setup.runtime_ctor", -1, [&] {
    runtime = std::make_unique<AgileMLRuntime>(&timed, ac,
                                               FreshNodes(kReliable, kTransient, next_id));
    recovery = std::make_unique<RecoveryManager>(runtime.get(), &store,
                                                 RecoveryManagerConfig{4, 0});
    runtime->SetObservability(&sinks.tracer, &sinks.metrics);
    runtime->SetLedger(&sinks.ledger);
    recovery->SetObservability(&sinks.tracer, &sinks.metrics);
    recovery->SetLedger(&sinks.ledger);
    recovery->ForceCheckpoint();  // Durable epoch 1: the starting state.
  });
  result.setup_s = static_cast<double>(NowNs() - pass_start) / 1e9;

  Rng churn(Mix(config.seed, kChurnStream));
  int bulk = 0;
  auto recover = [&](std::vector<NodeId> victims, int root) {
    const int depth = static_cast<int>(recovery->Classify(victims));
    const std::uint64_t restored_before = runtime->checkpoint_bytes_restored_total();
    const double ms = TimedMs(spans, kRecoverSpan[depth], root,
                              [&] { recovery->Recover(victims); });
    if (depth == static_cast<int>(RecoveryDepth::kDurableRestore)) {
      ++layer.restores;
      layer.restore_ms += ms;
      layer.restore_bytes += runtime->checkpoint_bytes_restored_total() - restored_before;
    }
  };

  RunLoop(config, config.tiny ? kCycle : 2 * kCycle, result, [&](int i, int root) {
    const Membership view = ViewOf(*runtime);
    switch (i % kCycle) {
      case 0: {  // Bulk addition, replacing the previous cycle's losses.
        bulk = static_cast<int>(churn.UniformInt(config.tiny ? 2 : 8, config.tiny ? 4 : 16));
        const std::vector<NodeInfo> fresh = FreshNodes(
            kReliable - view.reliable, kTransient - view.transient + bulk, next_id);
        Traced(spans, "agileml.add_nodes", root, [&] { runtime->AddNodes(fresh); });
        break;
      }
      case 1: {  // Warned eviction of `bulk` workers; one node goes silent.
        std::vector<NodeId> victims = PickMany(view.worker_only_transient, bulk + 1, churn);
        const NodeId silent = victims.back();
        victims.pop_back();
        Traced(spans, "agileml.evict", root, [&] { runtime->Evict(victims); });
        Traced(spans, "agileml.set_silent", root, [&] { runtime->SetNodeSilent(silent, true); });
        break;
      }
      case 2:  // Depth 0: a pure worker dies.
        recover({Pick(view.worker_only_transient, churn)}, root);
        break;
      case 3:  // Depth 1: an ActivePS host dies.
        recover({Pick(view.transient_servers, churn)}, root);
        break;
      case 4:  // Depth 2: a BackupPS host dies.
        recover({Pick(view.backup_only_reliable, churn)}, root);
        break;
      case 5: {  // Depth 3: a partition loses its active and backup copy.
        const RoleAssignment& roles = runtime->roles();
        std::vector<PartitionId> partitions;
        for (const auto& [partition, backup] : roles.backup) {
          partitions.push_back(partition);
        }
        const PartitionId partition = Pick(partitions, churn);
        recover({roles.server.at(partition), roles.backup.at(partition)}, root);
        break;
      }
      default:
        break;
    }
    const IterationReport report =
        Traced(spans, "agileml.run_clock", root, [&] { return runtime->RunClock(); });
    layer.net_bytes += report.total_bytes;
    const std::uint64_t commits_before = recovery->durable_commits();
    const std::uint64_t written_before = device.bytes_written();
    const double boundary_ms =
        TimedMs(spans, "agileml.boundary", root, [&] { recovery->OnClockBoundary(); });
    if (recovery->durable_commits() > commits_before) {
      ++layer.checkpoint_writes;
      layer.checkpoint_write_ms += boundary_ms;
      layer.checkpoint_bytes += device.bytes_written() - written_before;
    }
    return ReportDigest(report, *runtime);
  });

  layer.objective_ms = TimedMs(spans, "apps.objective", -1,
                               [&] { result.objective = runtime->ComputeObjective(); });
  layer.lost_clocks = runtime->lost_clocks_total();
  layer.pull_bytes = sinks.Counter("agileml.pull.bytes");
  layer.push_bytes = sinks.Counter("agileml.push.bytes");
  layer.backup_sync_bytes = sinks.Counter("agileml.backup_sync.bytes");
  sinks.Export(config, spans, layer);
  result.items = timed.items();
  result.pass_s = static_cast<double>(NowNs() - pass_start) / 1e9;
  return result;
}

// ----------------------------------------------------------------- spot_mlr

PassResult RunSpotMlr(const PassConfig& config) {
  const std::int64_t pass_start = NowNs();
  SpanRecorder* spans = config.spans;
  PassResult result;
  LayerTotals& layer = result.layer;

  // The market of bench::MakeMarketEnv (synthetic spot prices, estimator
  // trained on the first half of the horizon), built here step by step so
  // that trace generation and estimator training are timed apart and the
  // tiny size can shrink it. The job starts at a seeded point of the
  // second half.
  const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
  const std::vector<std::string> zones =
      config.tiny ? std::vector<std::string>{"us-east-1a", "us-east-1b"}
                  : std::vector<std::string>{"us-east-1a", "us-east-1b", "us-east-1c",
                                             "us-east-1d"};
  const SimDuration horizon = (config.tiny ? 20 : 90) * kDay;
  Rng market_rng(Mix(config.seed, kMarketStream));
  TraceStore traces;
  layer.trace_gen_ms = TimedMs(spans, "market.trace_gen", -1, [&] {
    SyntheticTraceConfig tc;
    tc.spikes_per_day = 3.0;
    traces = TraceStore::GenerateSynthetic(catalog, zones, horizon, tc, market_rng);
  });
  EvictionEstimator estimator;
  layer.estimator_train_ms = TimedMs(spans, "bidbrain.estimator_train", -1,
                                     [&] { estimator.Train(traces, 0.0, horizon / 2); });
  const SimTime start = horizon / 2 + market_rng.Uniform(0.0, horizon / 4);

  FeaturesConfig fc;
  fc.samples = config.tiny ? 512 : 16384;
  fc.dim = config.tiny ? 32 : 512;
  fc.classes = 16;  // 16 x 512 floats: a 32 KB, cache-resident model.
  fc.seed = Mix(config.seed, kDataStream);
  FeaturesDataset data;
  layer.dataset_ms = TimedMs(spans, "setup.dataset", -1, [&] { data = GenerateFeatures(fc); });

  MlrConfig mc;
  mc.objective_sample = config.tiny ? 256 : 2048;
  MultinomialLogRegApp app(&data, mc);
  TimedApp timed(&app, spans);
  ProteusConfig pc;
  pc.agileml.num_partitions = 16;
  pc.agileml.data_blocks = 128;
  // Clocks last minutes of virtual time, so market events land inside
  // the run and the spot tier keeps turning over (~5-12 evictions).
  pc.agileml.core_speed = 2e4;
  pc.agileml.seed = Mix(config.seed, kRuntimeStream);
  pc.agileml.parallel_execution = config.parallel;
  pc.agileml.detector.enabled = true;
  pc.agileml.detector.suspect_after = 1;
  pc.agileml.detector.confirm_after = 2;
  pc.bidbrain.max_spot_instances = 32;
  pc.bidbrain.allocation_quantum = 8;
  pc.on_demand_count = 3;
  pc.effective_failure_fraction = 0.3;
  pc.silent_failure_fraction = 0.5;
  pc.checkpoint_every = 5;
  pc.seed = Mix(config.seed, kChurnStream);
  ObsSinks sinks;
  std::unique_ptr<ProteusRuntime> runtime;
  layer.runtime_ctor_ms = TimedMs(spans, "setup.runtime_ctor", -1, [&] {
    runtime = std::make_unique<ProteusRuntime>(&timed, &catalog, &traces, &estimator, pc, start);
    runtime->SetObservability(&sinks.tracer, &sinks.metrics);
    runtime->SetLedger(&sinks.ledger);
  });
  result.setup_s = static_cast<double>(NowNs() - pass_start) / 1e9;

  RunLoop(config, config.tiny ? 10 : 40, result, [&](int, int root) {
    Traced(spans, "proteus.step", root, [&] { runtime->Step(); });
    layer.net_bytes += runtime->agileml().fabric().RoundTotalBytes();
    const ProteusStatus status = runtime->Status();
    return Digest()
        .Add(status.clock)
        .Add(status.virtual_time)
        .Add(status.cost_so_far)
        .Add(status.evictions)
        .Add(status.failures)
        .value();
  });

  layer.objective_ms = TimedMs(spans, "apps.objective", -1,
                               [&] { result.objective = runtime->agileml().ComputeObjective(); });
  const ProteusStatus status = runtime->Status();
  layer.lost_clocks = status.lost_clocks;
  layer.evictions = status.evictions;
  layer.failures = status.failures;
  layer.acquisitions = status.acquisitions;
  layer.bidbrain_decisions = static_cast<std::int64_t>(sinks.Counter("bidbrain.decisions"));
  layer.rpc_messages = static_cast<std::int64_t>(runtime->api_channel().messages_sent() +
                                                 runtime->controller_channel().messages_sent());
  layer.pull_bytes = sinks.Counter("agileml.pull.bytes");
  layer.push_bytes = sinks.Counter("agileml.push.bytes");
  layer.backup_sync_bytes = sinks.Counter("agileml.backup_sync.bytes");
  sinks.Export(config, spans, layer);
  result.items = timed.items();
  result.pass_s = static_cast<double>(NowNs() - pass_start) / 1e9;
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"mf_steady", "lda_churn", "spot_mlr"};
  return names;
}

PassResult RunPass(const PassConfig& config) {
  if (config.workload == "mf_steady") {
    return RunMfSteady(config);
  }
  if (config.workload == "lda_churn") {
    return RunLdaChurn(config);
  }
  PROTEUS_CHECK(config.workload == "spot_mlr") << "unknown workload " << config.workload;
  return RunSpotMlr(config);
}

int PoolThreads() { return static_cast<int>(std::max(2u, std::thread::hardware_concurrency())); }

}  // namespace perfbench
