// e2e_bench: end-to-end wall-clock benchmark of the Proteus runtime with a
// per-layer split. Normally launched through perfbench/run.py, which
// builds it first:
//
//   e2e_bench --workload mf_steady|lda_churn|spot_mlr --seed N --seconds S
//             --trace 0|1 [--tiny] [--reference FILE] [--write-reference FILE]
//             [--out-dir DIR]
//
// A run first makes one sequential pass (no thread pool) as the
// correctness reference and one parallel warm-up pass, then repeats timed
// passes until S seconds of them have run and at least kMinPasses of them
// were untraced. Every parallel pass must reproduce the reference's
// per-clock virtual-report digests exactly and its objective within a
// tolerance; for a seed pinned
// in --reference the reference itself must match the pin. With --trace 0
// all timed passes are untraced and the end-to-end metrics are reported.
// With --trace 1 untraced and traced passes alternate: the traced ones
// give the per-layer metrics, the pair gives the tracing overhead, and the
// spans are written as a Chrome trace under --out-dir.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": clocks, "failed": clocks, "metrics": {...}}
// The exit code is 0 only when no clock failed.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

// Relative objective tolerance against the sequential reference. Parallel
// workers interleave their ApplyDelta calls on shared rows, so SGD (MF,
// MLR) drifts in the 4th-5th digit and the LDA Gibbs sampler, which reads
// counts other workers are updating, by up to ~1% on the tiny corpus. The
// virtual reports may not drift at all.
constexpr double kObjectiveTolerance = 2e-2;

// Every end-to-end time is a median over the untraced timed passes, and
// every run makes at least kMinPasses of them. The host's speed drifts from
// one pass to the next by about 10 %, so one slow pass must not set a metric.
constexpr std::size_t kMinPasses = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string reference;
  std::string write_reference;
  std::string out_dir = ".bench_build/out";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload mf_steady|lda_churn|spot_mlr "
               "--seed N --seconds S --trace 0|1 [--tiny] [--reference FILE] "
               "[--write-reference FILE] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--reference") {
      options.reference = value;
    } else if (flag == "--write-reference") {
      options.write_reference = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  return options;
}

// ------------------------------------------------------- pinned references

// One line per pinned run: workload, size, seed, objective, clock count,
// then one hex digest per clock.
struct Pin {
  double objective = 0.0;
  std::vector<std::uint64_t> digests;
};

std::string PinKey(const Options& options) {
  return options.workload + " " + (options.tiny ? "tiny" : "full") + " " +
         std::to_string(options.seed);
}

std::map<std::string, std::string> ReadPinLines(const std::string& path) {
  std::map<std::string, std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string workload, size, seed;
    if (line.empty() || line[0] == '#' || !(fields >> workload >> size >> seed)) {
      continue;
    }
    lines[workload + " " + size + " " + seed] = line;
  }
  return lines;
}

std::optional<Pin> LoadPin(const std::string& path, const std::string& key) {
  const auto lines = ReadPinLines(path);
  const auto it = lines.find(key);
  if (it == lines.end()) {
    return std::nullopt;
  }
  std::istringstream fields(it->second);
  std::string workload, size, seed;
  std::size_t count = 0;
  Pin pin;
  fields >> workload >> size >> seed >> pin.objective >> count;
  for (std::size_t i = 0; i < count; ++i) {
    std::string hex;
    fields >> hex;
    pin.digests.push_back(std::strtoull(hex.c_str(), nullptr, 16));
  }
  if (!fields || pin.digests.size() != count) {
    std::fprintf(stderr, "e2e_bench: malformed reference line for %s in %s\n", key.c_str(),
                 path.c_str());
    std::exit(2);
  }
  return pin;
}

void WritePin(const std::string& path, const std::string& key, const PassResult& reference) {
  auto lines = ReadPinLines(path);
  std::ostringstream line;
  char objective[64];
  std::snprintf(objective, sizeof(objective), "%.17g", reference.objective);
  line << key << " " << objective << " " << reference.clocks.size();
  for (const ClockSample& clock : reference.clocks) {
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(clock.digest));
    line << " " << hex;
  }
  lines[key] = line.str();
  std::ofstream out(path);
  out << "# Pinned per-clock virtual-report digests of perfbench/e2e_bench.\n"
      << "# workload size seed objective clocks digest...\n";
  for (const auto& [k, text] : lines) {
    out << text << "\n";
  }
}

bool ObjectiveMatches(double value, double reference) {
  return std::isfinite(value) &&
         std::fabs(value - reference) <= kObjectiveTolerance * std::fabs(reference);
}

// ---------------------------------------------------------------- metrics

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// clock_ms_tail is each pass's slowest clock, median over the passes. A
// pass has a fixed number of clocks, so that is the same rank of the same
// clocks however fast the code runs.
std::vector<Metric> EndToEndOf(const std::vector<const PassResult*>& passes) {
  std::vector<double> clock_ms, slowest_ms, items_per_s, run_s, setup_s, objective;
  for (const PassResult* pass : passes) {
    double slowest = 0.0;
    for (const ClockSample& clock : pass->clocks) {
      clock_ms.push_back(clock.wall_ms);
      slowest = std::max(slowest, clock.wall_ms);
    }
    slowest_ms.push_back(slowest);
    items_per_s.push_back(Ratio(static_cast<double>(pass->items), pass->loop_s));
    run_s.push_back(pass->pass_s);
    setup_s.push_back(pass->setup_s);
    objective.push_back(pass->objective);
  }
  return {
      {"clock_ms_p50", Median(clock_ms), "ms"},
      {"clock_ms_tail", Median(slowest_ms), "ms"},
      {"items_per_s", Median(items_per_s), "1/s"},
      {"run_s", Median(run_s), "s"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"final_objective", Median(objective), "loss"},
  };
}

// Per-layer metrics of the traced passes, from their spans and counters.
std::vector<Metric> PerLayerOf(const std::vector<const PassResult*>& passes,
                               const SpanRecorder& spans) {
  const std::vector<Span> all = spans.Spans();
  std::vector<std::vector<std::size_t>> children(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].recorded() && all[i].parent >= 0) {
      children[static_cast<std::size_t>(all[i].parent)].push_back(i);
    }
  }

  // Worker-section split of every RunClock / Step span.
  double busy_ms = 0.0;
  double span_sum_ms = 0.0;
  std::int64_t calls = 0;
  std::vector<double> worker_span_ms, run_clock_ms, run_clock_self, step_ms, step_self;
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (!s.recorded()) {
      continue;
    }
    by_name[s.name].push_back(s.ms());
    const bool run_clock = s.name == "agileml.run_clock";
    const bool step = s.name == "proteus.step";
    if (!run_clock && !step) {
      continue;
    }
    double first = s.end_s;
    double last = s.start_s;
    for (const std::size_t c : children[i]) {
      if (all[c].name == "apps.process_range") {
        first = std::min(first, all[c].start_s);
        last = std::max(last, all[c].end_s);
        busy_ms += all[c].ms();
        ++calls;
      }
    }
    const double worker_span = last > first ? (last - first) * 1e3 : 0.0;
    worker_span_ms.push_back(worker_span);
    span_sum_ms += worker_span;
    (run_clock ? run_clock_ms : step_ms).push_back(s.ms());
    (run_clock ? run_clock_self : step_self).push_back(s.ms() - worker_span);
  }
  auto mean_of = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() || it->second.empty()
               ? 0.0
               : std::accumulate(it->second.begin(), it->second.end(), 0.0) /
                     static_cast<double>(it->second.size());
  };
  auto count_of = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : static_cast<double>(it->second.size());
  };

  LayerTotals sum;
  double clocks = 0.0;
  double items = 0.0;
  std::vector<double> dataset_ms, ctor_ms, trace_gen_ms, estimator_ms, objective_ms, export_ms;
  for (const PassResult* pass : passes) {
    const LayerTotals& l = pass->layer;
    clocks += static_cast<double>(pass->clocks.size());
    items += static_cast<double>(pass->items);
    dataset_ms.push_back(l.dataset_ms);
    ctor_ms.push_back(l.runtime_ctor_ms);
    trace_gen_ms.push_back(l.trace_gen_ms);
    estimator_ms.push_back(l.estimator_train_ms);
    objective_ms.push_back(l.objective_ms);
    export_ms.push_back(l.export_ms);
    sum.checkpoint_writes += l.checkpoint_writes;
    sum.checkpoint_write_ms += l.checkpoint_write_ms;
    sum.checkpoint_bytes += l.checkpoint_bytes;
    sum.restores += l.restores;
    sum.restore_ms += l.restore_ms;
    sum.restore_bytes += l.restore_bytes;
    sum.backup_sync_bytes += l.backup_sync_bytes;
    sum.net_bytes += l.net_bytes;
    sum.pull_bytes += l.pull_bytes;
    sum.push_bytes += l.push_bytes;
    sum.lost_clocks += l.lost_clocks;
    sum.ledger_events += l.ledger_events;
    sum.trace_events += l.trace_events;
    sum.evictions += l.evictions;
    sum.failures += l.failures;
    sum.acquisitions += l.acquisitions;
    sum.bidbrain_decisions += l.bidbrain_decisions;
    sum.rpc_messages += l.rpc_messages;
  }
  const double n = static_cast<double>(passes.size());
  auto per_pass = [&](std::int64_t total) { return Ratio(static_cast<double>(total), n); };
  auto per_clock = [&](double total) { return Ratio(total, clocks); };

  std::vector<Metric> out = {
      {"apps.busy_ms_per_clock", per_clock(busy_ms), "ms"},
      {"apps.worker_span_ms_p50", Median(worker_span_ms), "ms"},
      {"apps.parallel_eff", Ratio(busy_ms, span_sum_ms * PoolThreads()), "ratio"},
      {"apps.calls", per_clock(static_cast<double>(calls)), "1/clock"},
      {"apps.items_per_clock", per_clock(items), "1/clock"},
      {"apps.objective_ms", Median(objective_ms), "ms"},
      {"agileml.run_clock.ms_p50", Median(run_clock_ms), "ms"},
      {"agileml.run_clock.self_ms_p50", Median(run_clock_self), "ms"},
      {"agileml.add_nodes.ms", mean_of("agileml.add_nodes"), "ms"},
      {"agileml.evict.ms", mean_of("agileml.evict"), "ms"},
  };
  const char* depth_spans[4] = {"agileml.recover.d0", "agileml.recover.d1",
                                "agileml.recover.d2", "agileml.recover.d3"};
  for (int d = 0; d < 4; ++d) {
    out.push_back({std::string("agileml.recover.ms.d") + std::to_string(d),
                   mean_of(depth_spans[d]), "ms"});
  }
  for (int d = 0; d < 4; ++d) {
    out.push_back({std::string("agileml.recover.count.d") + std::to_string(d),
                   Ratio(count_of(depth_spans[d]), n), "count"});
  }
  const std::vector<Metric> rest = {
      {"agileml.boundary.ms", mean_of("agileml.boundary"), "ms"},
      {"agileml.lost_clocks", per_pass(sum.lost_clocks), "count"},
      {"agileml.redo_ratio", per_clock(static_cast<double>(sum.lost_clocks)), "ratio"},
      {"ps.checkpoint.write_ms",
       Ratio(sum.checkpoint_write_ms, static_cast<double>(sum.checkpoint_writes)), "ms"},
      {"ps.checkpoint.mb_per_s",
       Ratio(static_cast<double>(sum.checkpoint_bytes) / 1e3, sum.checkpoint_write_ms), "MB/s"},
      {"ps.restore.ms", Ratio(sum.restore_ms, static_cast<double>(sum.restores)), "ms"},
      {"ps.restore.mb_per_s",
       Ratio(static_cast<double>(sum.restore_bytes) / 1e3, sum.restore_ms), "MB/s"},
      {"ps.backup_sync.bytes_per_clock", per_clock(static_cast<double>(sum.backup_sync_bytes)),
       "B/clock"},
      {"net.bytes_per_clock", per_clock(static_cast<double>(sum.net_bytes)), "B/clock"},
      {"net.pull_bytes_per_clock", per_clock(static_cast<double>(sum.pull_bytes)), "B/clock"},
      {"net.push_bytes_per_clock", per_clock(static_cast<double>(sum.push_bytes)), "B/clock"},
      {"obs.ledger_events", per_pass(sum.ledger_events), "count"},
      {"obs.trace_events", per_pass(sum.trace_events), "count"},
      {"obs.export_ms", Median(export_ms), "ms"},
      {"proteus.step.ms_p50", Median(step_ms), "ms"},
      {"proteus.step.self_ms_p50", Median(step_self), "ms"},
      {"proteus.evictions", per_pass(sum.evictions), "count"},
      {"proteus.failures", per_pass(sum.failures), "count"},
      {"proteus.acquisitions", per_pass(sum.acquisitions), "count"},
      {"bidbrain.decisions", per_pass(sum.bidbrain_decisions), "count"},
      {"bidbrain.estimator_train_ms", Median(estimator_ms), "ms"},
      {"market.trace_gen_ms", Median(trace_gen_ms), "ms"},
      {"rpc.messages", per_pass(sum.rpc_messages), "count"},
      {"setup.dataset_ms", Median(dataset_ms), "ms"},
      {"setup.runtime_ctor_ms", Median(ctor_ms), "ms"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintSpanTable(const SpanRecorder& spans) {
  std::printf("per-layer spans (traced passes; self = duration minus child spans):\n");
  std::printf("  %-28s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "mean_ms");
  for (const auto& [name, stats] : spans.ByName()) {
    std::printf("  %-28s %8lld %12.3f %12.3f %12.4f\n", name.c_str(),
                static_cast<long long>(stats.count), stats.total_ms, stats.self_ms,
                Ratio(stats.total_ms, static_cast<double>(stats.count)));
  }
}

void PrintJson(bool correct, std::int64_t attempted, std::int64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  const std::string key = PinKey(options);
  PassConfig base;
  base.workload = options.workload;
  base.seed = options.seed;
  base.tiny = options.tiny;
  base.export_dir = (std::filesystem::path(options.out_dir) / "obs" / options.workload).string();

  // Correctness reference: the same seed, sequentially.
  PassConfig sequential = base;
  sequential.parallel = false;
  const PassResult reference = RunPass(sequential);
  // Hand freed pages back after every pass, so peak_rss_mb measures one
  // pass and not the allocator fragmentation earlier passes left behind.
  malloc_trim(0);
  std::string pin_status = "no pin for this seed";
  bool pin_ok = true;
  if (!options.reference.empty()) {
    if (const std::optional<Pin> pin = LoadPin(options.reference, key)) {
      std::vector<std::uint64_t> digests;
      for (const ClockSample& clock : reference.clocks) {
        digests.push_back(clock.digest);
      }
      pin_ok = digests == pin->digests && ObjectiveMatches(reference.objective, pin->objective);
      pin_status = pin_ok ? "matches pin" : "MISMATCHES pin";
    }
  }
  if (!options.write_reference.empty()) {
    WritePin(options.write_reference, key, reference);
    pin_status = "written to " + options.write_reference;
  }

  SpanRecorder spans;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  // Runs one parallel pass and checks every clock of it against the
  // reference.
  auto run_checked = [&](bool this_traced, const std::string& label) {
    PassConfig config = base;
    config.spans = this_traced ? &spans : nullptr;
    PassResult pass = RunPass(config);
    malloc_trim(0);
    const bool objective_ok = ObjectiveMatches(pass.objective, reference.objective);
    const std::size_t clocks = std::max(pass.clocks.size(), reference.clocks.size());
    std::int64_t pass_failed = 0;
    std::size_t first_mismatch = clocks;
    for (std::size_t i = 0; i < clocks; ++i) {
      const bool match = i < pass.clocks.size() && i < reference.clocks.size() &&
                         pass.clocks[i].digest == reference.clocks[i].digest;
      if (!match) {
        first_mismatch = std::min(first_mismatch, i);
      }
      pass_failed += (match && objective_ok && pin_ok) ? 0 : 1;
    }
    if (pass_failed > 0) {
      std::printf("%s: %lld of %zu clocks FAILED (first digest mismatch at clock %zu; "
                  "objective %.6f vs reference %.6f)\n",
                  label.c_str(), static_cast<long long>(pass_failed), clocks, first_mismatch,
                  pass.objective, reference.objective);
    }
    attempted += static_cast<std::int64_t>(clocks);
    failed += pass_failed;
    return pass;
  };

  // Warm-up: the process's first parallel pass pays one-time costs (its
  // first clocks run 2-3x slower than any later pass's). It is checked like
  // the others but left out of the metrics and of the measured seconds.
  run_checked(false, "warm-up pass");

  // Timed passes. With --trace 1 untraced and traced passes alternate.
  std::vector<PassResult> passes;
  std::vector<bool> traced;
  double measured_s = 0.0;
  std::size_t untraced_count = 0;
  while (measured_s < options.seconds || untraced_count < kMinPasses) {
    const bool this_traced = options.trace && passes.size() % 2 == 1;
    PassResult pass = run_checked(this_traced, "pass " + std::to_string(passes.size()));
    measured_s += pass.pass_s;
    untraced_count += this_traced ? 0 : 1;
    passes.push_back(std::move(pass));
    traced.push_back(this_traced);
  }

  std::vector<const PassResult*> untraced_passes;
  std::vector<const PassResult*> traced_passes;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    (traced[i] ? traced_passes : untraced_passes).push_back(&passes[i]);
  }

  std::printf("perfbench %s seed=%llu%s: %zu untraced + %zu traced passes of %zu clocks, "
              "pool threads %d\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.tiny ? " (tiny)" : "", untraced_passes.size(), traced_passes.size(),
              reference.clocks.size(), PoolThreads());
  const std::vector<Metric> untraced_e2e = EndToEndOf(untraced_passes);
  std::vector<double> sequential_ms;
  for (const ClockSample& clock : reference.clocks) {
    sequential_ms.push_back(clock.wall_ms);
  }
  // The sequential pass doubles as the single-worker baseline.
  std::printf("reference: sequential pass, objective %.6f, %s; %.3f ms/clock p50 on one "
              "thread (parallel speedup %.2fx)\n",
              reference.objective, pin_status.c_str(), Median(sequential_ms),
              Ratio(Median(sequential_ms), untraced_e2e[0].value));
  PrintMetrics("end-to-end (untraced passes):", untraced_e2e);
  std::printf("  clock_ms_tail is the slowest of a pass's %zu clocks, median over %zu passes\n",
              reference.clocks.size(), untraced_passes.size());
  std::printf("  failed_clock_share %34.6f (%lld of %lld clocks)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<long long>(failed), static_cast<long long>(attempted));

  std::vector<Metric> reported = untraced_e2e;
  if (options.trace) {
    const std::vector<Metric> traced_e2e = EndToEndOf(traced_passes);
    std::printf("tracing overhead (traced minus untraced):\n");
    for (std::size_t i = 0; i < traced_e2e.size(); ++i) {
      const Metric& t = traced_e2e[i];
      const Metric& u = untraced_e2e[i];
      std::printf("  %-34s %+16.6f %s (%+.1f%%)\n", t.name.c_str(), t.value - u.value,
                  t.unit.c_str(), 100.0 * Ratio(t.value - u.value, std::fabs(u.value)));
    }
    PrintSpanTable(spans);
    reported = PerLayerOf(traced_passes, spans);
    PrintMetrics("per-layer (traced passes):", reported);
    std::filesystem::create_directories(options.out_dir);
    const std::string trace_path =
        (std::filesystem::path(options.out_dir) /
         ("trace_" + options.workload + "_seed" + std::to_string(options.seed) + ".json"))
            .string();
    if (spans.tracer().WriteJson(trace_path)) {
      std::printf("chrome trace: %zu spans in %s\n", spans.tracer().size(), trace_path.c_str());
    }
  }
  PrintJson(failed == 0, attempted, failed, reported);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
