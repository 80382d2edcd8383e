#include "src/backtest/backtest_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <thread>

#include "src/common/csv.h"
#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"

namespace proteus {
namespace backtest {

namespace {

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::string Fixed(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

}  // namespace

std::uint64_t BacktestEngine::CellSeed(std::uint64_t base, const std::string& policy,
                                       const std::string& instance_type, int window) {
  std::uint64_t h = kFnvOffsetBasis ^ base;
  h = Fnv1a(h, policy.data(), policy.size());
  h = Fnv1a(h, instance_type.data(), instance_type.size());
  const std::uint64_t w = static_cast<std::uint64_t>(window);
  h = Fnv1a(h, &w, sizeof(w));
  return SplitMix64(h);
}

BacktestEngine::BacktestEngine(const InstanceTypeCatalog* catalog, const TraceStore* traces,
                               const EvictionModel* estimator)
    : catalog_(catalog), traces_(traces), estimator_(estimator) {
  PROTEUS_CHECK(catalog_ != nullptr);
  PROTEUS_CHECK(traces_ != nullptr);
  PROTEUS_CHECK(estimator_ != nullptr);
}

void BacktestEngine::SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  obs_.SetTracer(tracer);
  obs_.SetMetrics(metrics);
}

void BacktestEngine::RegisterPolicy(PolicyFactory factory, std::string label) {
  PROTEUS_CHECK(factory != nullptr);
  std::string name = label.empty() ? factory()->name() : std::move(label);
  PROTEUS_CHECK(name.find(',') == std::string::npos)
      << "policy name must be CSV-safe: " << name;
  PROTEUS_CHECK(name.find('\n') == std::string::npos);
  policies_.push_back(std::move(factory));
  names_.push_back(std::move(name));
}

bool BacktestEngine::RegisterPolicySpec(const std::string& spec, const SchemeConfig& scheme,
                                        std::string* error, std::string label) {
  PolicyEnv env{catalog_, traces_, estimator_};
  PolicyFactory factory = MakePolicyFactory(spec, env, scheme, error);
  if (factory == nullptr) {
    return false;
  }
  RegisterPolicy(std::move(factory), std::move(label));
  return true;
}

BacktestReport BacktestEngine::Run(const BacktestConfig& config) const {
  PROTEUS_CHECK(!policies_.empty()) << "register at least one policy";
  PROTEUS_CHECK(!config.reference_types.empty());

  // --- Window grid ---
  std::vector<SimTime> window_starts = config.explicit_starts;
  if (window_starts.empty()) {
    PROTEUS_CHECK_GT(config.windows, 0);
    const SimDuration span = config.eval_end - config.eval_begin;
    PROTEUS_CHECK_GE(span, config.window_duration)
        << "evaluation span shorter than one window";
    SimDuration stride = config.stride;
    if (stride <= 0.0) {
      stride = config.windows > 1 ? (span - config.window_duration) / (config.windows - 1) : 0.0;
    }
    for (int w = 0; w < config.windows; ++w) {
      window_starts.push_back(config.eval_begin + w * stride);
    }
  }

  // --- Cell plan (policy-major, then type, then window) ---
  struct CellPlan {
    std::size_t policy = 0;
    std::size_t type = 0;
    int window = 0;
    SimTime window_start = 0.0;
    std::uint64_t seed = 0;
  };
  std::vector<CellPlan> plan;
  plan.reserve(policies_.size() * config.reference_types.size() * window_starts.size());
  for (std::size_t p = 0; p < policies_.size(); ++p) {
    for (std::size_t ty = 0; ty < config.reference_types.size(); ++ty) {
      for (std::size_t w = 0; w < window_starts.size(); ++w) {
        CellPlan cell;
        cell.policy = p;
        cell.type = ty;
        cell.window = static_cast<int>(w);
        cell.window_start = window_starts[w];
        cell.seed = CellSeed(config.seed, names_[p], config.reference_types[ty], cell.window);
        plan.push_back(cell);
      }
    }
  }

  // Job specs per reference type (shared across cells).
  std::vector<JobSpec> specs;
  specs.reserve(config.reference_types.size());
  for (const std::string& type : config.reference_types) {
    specs.push_back(JobSpec::ForReferenceDuration(*catalog_, type, config.reference_count,
                                                  config.window_duration,
                                                  config.reference_phi));
  }

  BacktestReport report;
  report.cells.resize(plan.size());
  const unsigned hw = std::thread::hardware_concurrency();
  report.threads_used =
      config.threads > 0 ? config.threads : static_cast<int>(hw > 0 ? hw : 1);

  // --- Parallel fan-out: each cell writes only its own slot ---
  const JobSimulator sim(catalog_, traces_, estimator_);
  const auto wall_begin = std::chrono::steady_clock::now();
  {
    ThreadPool pool(static_cast<std::size_t>(report.threads_used));
    pool.ParallelFor(plan.size(), [&](std::size_t i) {
      const CellPlan& cell = plan[i];
      const std::unique_ptr<AcquisitionPolicy> policy = policies_[cell.policy]();
      Rng rng(cell.seed);
      SimTime start = cell.window_start;
      if (config.start_jitter > 0.0) {
        start += rng.Uniform(0.0, config.start_jitter);
      }
      const JobResult run = sim.Run(*policy, specs[cell.type], config.scheme, start);

      BacktestCellResult& out = report.cells[i];
      out.policy = names_[cell.policy];
      out.instance_type = config.reference_types[cell.type];
      out.window = cell.window;
      out.start = start;
      out.cell_seed = cell.seed;
      out.completed = run.completed;
      out.cost = run.bill.cost;
      out.work = run.work_done;
      out.cost_per_work = run.work_done > 0.0 ? run.bill.cost / run.work_done : 0.0;
      out.runtime = run.runtime;
      out.evictions = run.evictions;
      out.acquisitions = run.acquisitions;
      out.on_demand_hours = run.bill.on_demand_hours;
      out.spot_paid_hours = run.bill.spot_paid_hours;
      out.free_hours = run.bill.free_hours;
      out.machine_hours = run.bill.TotalHours();
      out.free_fraction = out.machine_hours > 0.0 ? out.free_hours / out.machine_hours : 0.0;
    });
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_begin).count();

  // --- Aggregates (registration order; means over completed cells) ---
  report.aggregates.resize(policies_.size());
  for (std::size_t p = 0; p < policies_.size(); ++p) {
    report.aggregates[p].policy = names_[p];
  }
  for (std::size_t i = 0; i < plan.size(); ++i) {
    BacktestPolicyAggregate& agg = report.aggregates[plan[i].policy];
    const BacktestCellResult& cell = report.cells[i];
    ++agg.cells;
    agg.total_machine_hours += cell.machine_hours;
    if (!cell.completed) {
      continue;
    }
    ++agg.completed;
    agg.mean_cost += cell.cost;
    agg.mean_runtime += cell.runtime;
    agg.mean_evictions += cell.evictions;
    agg.mean_acquisitions += cell.acquisitions;
    agg.mean_cost_per_work += cell.cost_per_work;
    agg.mean_free_fraction += cell.free_fraction;
  }
  const AcquisitionPolicy* baseline = nullptr;
  std::size_t baseline_index = 0;
  std::vector<std::unique_ptr<AcquisitionPolicy>> probes;
  for (std::size_t p = 0; p < policies_.size(); ++p) {
    BacktestPolicyAggregate& agg = report.aggregates[p];
    if (agg.completed > 0) {
      agg.mean_cost /= agg.completed;
      agg.mean_runtime /= agg.completed;
      agg.mean_evictions /= agg.completed;
      agg.mean_acquisitions /= agg.completed;
      agg.mean_cost_per_work /= agg.completed;
      agg.mean_free_fraction /= agg.completed;
    }
    probes.push_back(policies_[p]());
    if (baseline == nullptr && probes.back()->OnDemandDoesWork()) {
      baseline = probes.back().get();
      baseline_index = p;
    }
  }
  if (baseline != nullptr && report.aggregates[baseline_index].mean_cost > 0.0) {
    const double base_cost = report.aggregates[baseline_index].mean_cost;
    for (BacktestPolicyAggregate& agg : report.aggregates) {
      agg.cost_vs_on_demand = agg.completed > 0 ? agg.mean_cost / base_cost : 0.0;
    }
  }

  // Ranking: cheapest completed mean cost first; policies with no
  // completed cells sink to the bottom.
  report.ranking.resize(report.aggregates.size());
  std::iota(report.ranking.begin(), report.ranking.end(), 0u);
  std::stable_sort(report.ranking.begin(), report.ranking.end(),
                   [&](std::size_t a, std::size_t b) {
                     const auto& aa = report.aggregates[a];
                     const auto& bb = report.aggregates[b];
                     if ((aa.completed > 0) != (bb.completed > 0)) {
                       return aa.completed > 0;
                     }
                     return aa.mean_cost < bb.mean_cost;
                   });

  // --- Observability (deterministic: after the join, in cell order) ---
  for (const BacktestCellResult& cell : report.cells) {
    const obs::Labels labels = {{"policy", cell.policy}};
    obs_.GetCounter("backtest.cells", labels)->Increment();
    if (!cell.completed) {
      obs_.GetCounter("backtest.cells.incomplete", labels)->Increment();
    }
    obs_.GetHistogram("backtest.cell.cost",
                      {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0}, labels)
        ->Observe(cell.cost);
  }
  for (const BacktestPolicyAggregate& agg : report.aggregates) {
    const obs::Labels labels = {{"policy", agg.policy}};
    obs_.GetGauge("backtest.policy.mean_cost", labels)->Set(agg.mean_cost);
    obs_.GetGauge("backtest.policy.mean_cost_per_work", labels)->Set(agg.mean_cost_per_work);
    obs_.GetGauge("backtest.policy.free_fraction", labels)->Set(agg.mean_free_fraction);
    obs_.GetGauge("backtest.policy.machine_hours", labels)->Set(agg.total_machine_hours);
  }
  for (const BacktestCellResult& cell : report.cells) {
    obs_.Instant(cell.start, "cell", "backtest",
                 {{"policy", cell.policy},
                  {"window", static_cast<std::int64_t>(cell.window)},
                  {"type", cell.instance_type},
                  {"cost", cell.cost},
                  {"E_A", cell.cost_per_work},
                  {"completed", static_cast<std::int64_t>(cell.completed ? 1 : 0)}});
  }
  return report;
}

std::string BacktestReport::ToCsv() const {
  CsvWriter csv({"policy", "instance_type", "window", "start_hours", "cell_seed", "completed",
                 "cost", "work", "cost_per_work", "runtime_hours", "evictions", "acquisitions",
                 "machine_hours", "on_demand_hours", "spot_paid_hours", "free_hours",
                 "free_fraction"});
  for (const BacktestCellResult& cell : cells) {
    csv.AddRow({cell.policy, cell.instance_type, std::to_string(cell.window),
                Fixed(cell.start / kHour, 6), std::to_string(cell.cell_seed),
                cell.completed ? "1" : "0", Fixed(cell.cost, 6), Fixed(cell.work, 4),
                Fixed(cell.cost_per_work, 8), Fixed(cell.runtime / kHour, 6),
                std::to_string(cell.evictions), std::to_string(cell.acquisitions),
                Fixed(cell.machine_hours, 4), Fixed(cell.on_demand_hours, 4),
                Fixed(cell.spot_paid_hours, 4), Fixed(cell.free_hours, 4),
                Fixed(cell.free_fraction, 6)});
  }
  return csv.Render();
}

TextTable BacktestReport::RankedTable() const {
  TextTable table({"rank", "policy", "avg cost ($)", "vs on-demand", "avg E_A ($/work)",
                   "avg runtime (h)", "avg evictions", "free share", "machine-hours",
                   "cells"});
  int rank = 1;
  for (const std::size_t index : ranking) {
    const BacktestPolicyAggregate& agg = aggregates[index];
    table.AddRow({std::to_string(rank++), agg.policy, TextTable::Cell(agg.mean_cost, 2),
                  agg.cost_vs_on_demand > 0.0
                      ? TextTable::Cell(100.0 * agg.cost_vs_on_demand, 0) + "%"
                      : std::string("-"),
                  TextTable::Cell(agg.mean_cost_per_work, 4),
                  TextTable::Cell(agg.mean_runtime / kHour, 2),
                  TextTable::Cell(agg.mean_evictions, 1),
                  TextTable::Cell(100.0 * agg.mean_free_fraction, 0) + "%",
                  TextTable::Cell(agg.total_machine_hours, 1),
                  std::to_string(agg.completed) + "/" + std::to_string(agg.cells)});
  }
  return table;
}

const BacktestPolicyAggregate* BacktestReport::Find(const std::string& policy) const {
  for (const BacktestPolicyAggregate& agg : aggregates) {
    if (agg.policy == policy) {
      return &agg;
    }
  }
  return nullptr;
}

}  // namespace backtest
}  // namespace proteus
