#include "bench/support.h"

#include <cstdio>
#include <cstring>

#include "src/common/logging.h"

namespace proteus {
namespace bench {

std::string TakeFlag(int& argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  std::string value;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      value = argv[i] + prefix.size();
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return value;
}

bool TakeSwitch(int& argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  bool present = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) {
      present = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return present;
}

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

ObsSession* g_session = nullptr;

}  // namespace

ObsSession* CurrentObsSession() { return g_session; }

ObsSession::ObsSession(int& argc, char** argv)
    : trace_path_(TakeFlag(argc, argv, "trace_out")),
      metrics_path_(TakeFlag(argc, argv, "metrics_out")),
      ledger_path_(TakeFlag(argc, argv, "ledger_out")),
      recorder_(&ledger_) {
  const std::string flight_path = TakeFlag(argc, argv, "flight_out");
  if (!flight_path.empty()) {
    recorder_.SetDumpPath(flight_path);
  }
  recorder_.InstallFatalHook();
  g_session = this;
}

ObsSession::~ObsSession() {
  Flush();
  g_session = nullptr;
}

void ObsSession::DumpFlightRecorder(const std::string& reason) {
  recorder_.Dump(reason);
}

void ObsSession::Flush() {
  if (flushed_) {
    return;
  }
  flushed_ = true;
  if (!trace_path_.empty()) {
    if (tracer_.WriteJson(trace_path_)) {
      std::fprintf(stderr, "trace: wrote %zu events to %s\n", tracer_.size(),
                   trace_path_.c_str());
    } else {
      std::fprintf(stderr, "trace: failed to write %s\n", trace_path_.c_str());
    }
  }
  if (!metrics_path_.empty()) {
    const obs::MetricsSnapshot snapshot = metrics_.Snapshot();
    const bool ok = EndsWith(metrics_path_, ".csv")    ? snapshot.WriteCsv(metrics_path_)
                    : EndsWith(metrics_path_, ".json") ? snapshot.WriteJson(metrics_path_)
                                                       : snapshot.WriteText(metrics_path_);
    if (ok) {
      std::fprintf(stderr, "metrics: wrote %zu series to %s\n", snapshot.points.size(),
                   metrics_path_.c_str());
    } else {
      std::fprintf(stderr, "metrics: failed to write %s\n", metrics_path_.c_str());
    }
  }
  if (!ledger_path_.empty()) {
    if (ledger_.WriteJsonl(ledger_path_)) {
      std::fprintf(stderr, "ledger: wrote %zu events to %s\n", ledger_.size(),
                   ledger_path_.c_str());
    } else {
      std::fprintf(stderr, "ledger: failed to write %s\n", ledger_path_.c_str());
    }
  }
}

MfEnv MakeMfEnv() {
  MfEnv env;
  RatingsConfig rc;
  rc.users = 30000;
  rc.items = 2000;
  rc.ratings = 200000;
  rc.item_zipf = 1.01;  // Near-uniform item popularity: wide read sets.
  rc.sort_by_user = true;
  rc.seed = 1001;
  env.data = GenerateRatings(rc);
  env.mf.rank = 512;  // Standing in for the paper's rank-1000 Netflix run.
  env.mf.learning_rate = 0.01;
  env.mf.regularization = 0.02;
  env.mf.objective_sample = 20000;
  return env;
}

LdaEnv MakeLdaEnv() {
  LdaEnv env;
  CorpusConfig cc;
  cc.docs = 6000;
  cc.vocab = 8000;
  cc.true_topics = 20;
  cc.avg_doc_len = 120;
  cc.seed = 1002;
  env.data = GenerateCorpus(cc);
  env.lda.topics = 64;
  return env;
}

AgileMLConfig ClusterAConfig(int num_partitions) {
  AgileMLConfig config;
  config.num_partitions = num_partitions;
  // Calibrated virtual core speed (cost units per core-second); see the
  // header comment and bench/tab_model_validation.cc.
  config.core_speed = 1.2e7;
  config.storage_bandwidth = 6.25e7;
  config.backup_sync_every = 1;
  config.data_blocks = 1024;
  config.seed = 7;
  config.parallel_execution = true;
  return config;
}

std::vector<NodeInfo> MakeCluster(int reliable, int transient) {
  std::vector<NodeInfo> nodes;
  NodeId id = 0;
  for (int i = 0; i < reliable; ++i) {
    nodes.push_back({id++, Tier::kReliable, 8, kInvalidAllocation});
  }
  for (int i = 0; i < transient; ++i) {
    nodes.push_back({id++, Tier::kTransient, 8, kInvalidAllocation});
  }
  return nodes;
}

double MeasureTimePerIter(AgileMLRuntime& runtime, int warmup, int iters) {
  if (ObsSession* session = CurrentObsSession()) {
    session->Attach(runtime);
  }
  runtime.RunClocks(warmup);
  double total = 0.0;
  for (int i = 0; i < iters; ++i) {
    total += runtime.RunClock().duration;
  }
  return total / iters;
}

MarketEnv MakeMarketEnv(std::uint64_t seed) {
  MarketEnv env;
  env.catalog = InstanceTypeCatalog::Default();
  SyntheticTraceConfig config;
  config.spikes_per_day = 3.0;
  Rng rng(seed);
  env.traces = TraceStore::GenerateSynthetic(
      env.catalog, {"us-east-1a", "us-east-1b", "us-east-1c", "us-east-1d"}, 90 * kDay, config,
      rng);
  env.estimator.Train(env.traces, 0.0, 45 * kDay);
  env.eval_begin = 45 * kDay;
  env.eval_end = 90 * kDay;
  return env;
}

MarketEnv MakeMarketEnvFromCsv(const std::string& path) {
  MarketEnv env;
  env.catalog = InstanceTypeCatalog::Default();
  env.traces = TraceStore::ReadFile(path);
  PROTEUS_CHECK(!env.traces.empty()) << "no traces in " << path;
  SimTime begin = 0.0;
  SimTime end = 0.0;
  bool first = true;
  for (const MarketKey& key : env.traces.Keys()) {
    const PriceSeries& series = env.traces.Get(key);
    if (first || series.start_time() < begin) {
      begin = series.start_time();
    }
    if (first || series.end_time() > end) {
      end = series.end_time();
    }
    first = false;
  }
  PROTEUS_CHECK_GT(end, begin) << "degenerate trace horizon in " << path;
  const SimTime mid = begin + (end - begin) / 2;
  env.estimator.Train(env.traces, begin, mid);
  env.eval_begin = mid;
  env.eval_end = end;
  return env;
}

SchemeConfig PaperSchemeConfig() {
  SchemeConfig config;
  config.on_demand_count = 3;
  config.on_demand_type = "c4.xlarge";
  config.standard_target_vcpus = 64 * 8;  // Cluster-A capacity.
  config.bidbrain.max_spot_instances = 189;
  config.bidbrain.allocation_quantum = 16;
  return config;
}

bool WriteBenchJson(const std::string& path, const std::string& schema,
                    const std::vector<BenchJsonRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"schema\": \"proteus.%s.v1\",\n  \"benchmarks\": [\n", schema.c_str());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"metric\": \"%s\", \"value\": %.4f, "
                 "\"unit\": \"%s\"}%s\n",
                 rows[i].name.c_str(), rows[i].metric.c_str(), rows[i].value,
                 rows[i].unit.c_str(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  for (const BenchJsonRow& row : rows) {
    std::printf("%-34s %14.4f %s\n", row.name.c_str(), row.value, row.unit.c_str());
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

std::vector<SimTime> SampleStartTimes(const MarketEnv& env, int count, SimDuration job_slack,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SimTime> starts;
  starts.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    starts.push_back(rng.Uniform(env.eval_begin, env.eval_end - job_slack));
  }
  return starts;
}

}  // namespace bench
}  // namespace proteus
