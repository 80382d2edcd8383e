#include "src/cluster/fleet.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <thread>
#include <utility>

#include "src/cluster/fairness.h"
#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"

namespace proteus {
namespace cluster {
namespace {

constexpr double kEps = 1e-9;
// Spot bid per slot, as a multiple of the type's on-demand price.
constexpr double kBidMultiplier = 1.0;
// Newly granted slots start producing this far into their first round.
constexpr SimDuration kPrepDelay = 5 * kMinute;

void AppendF(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

// Live per-tenant state for one Run(). The parallel demand section
// writes only the scratch fields of its own tenant.
struct TenantState {
  TenantSpec spec;
  int id = 0;
  Rng rng{0};
  double remaining = 0.0;  // Slot-hours of work left.
  bool admitted = false;
  bool retired = false;
  bool completed = false;
  bool cancelled = false;
  SimTime completion_time = 0.0;
  std::vector<AllocationId> slots;   // Running 1-instance spot allocations.
  std::vector<AllocationId> billed;  // Every allocation ever owned.
  std::unique_ptr<BidBrain> brain;
  std::unique_ptr<DemandReporter> reporter;
  // Accumulators.
  double allocated_hours = 0.0;
  double useful_hours = 0.0;
  double borrowed_hours = 0.0;
  double reported_rounds = 0.0;
  double true_rounds = 0.0;
  int preempted = 0;
  int evictions = 0;
  std::int64_t credits_final = 0;
  bool credits_captured = false;
  // Per-round scratch (owned by this tenant's parallel task).
  bool active_phase = true;
  int true_need = 0;
  int reported = 0;
  double useful_round = 0.0;                   // Productive slot-hours this round.
  AllocationId od_alloc = kInvalidAllocation;  // This round's top-up.

  int held() const { return static_cast<int>(slots.size()); }
};

// Productive window of one allocation within [t0, t1): starts after the
// prep delay, ends at eviction (when inside the round).
struct ProdWindow {
  SimTime from;
  SimTime to;
};

ProdWindow WindowOf(const Allocation& alloc, SimTime t0, SimTime t1, SimDuration prep) {
  ProdWindow w;
  w.from = std::max(t0, alloc.start + prep);
  SimTime end = t1;
  if (alloc.eviction_time.has_value()) {
    end = std::min(end, *alloc.eviction_time);
  }
  w.to = std::max(w.from, end);
  return w;
}

}  // namespace

const TenantResult* FleetResult::Find(const std::string& name) const {
  for (const TenantResult& t : tenants) {
    if (t.name == name) {
      return &t;
    }
  }
  return nullptr;
}

std::string FleetResult::ToCsv() const {
  std::string out;
  out += "round,time_h,capacity,tenant,name,strategy,reported,true_need,granted,"
         "borrowed,held_end,balance,useful_h\n";
  for (const TenantRound& row : tenant_rounds) {
    const RoundRecord& r = rounds[static_cast<std::size_t>(row.round)];
    const TenantResult& t = tenants[static_cast<std::size_t>(row.tenant)];
    AppendF(out, "%d,%.4f,%d,%d,%s,%s,%d,%d,%d,%d,%d,%lld,%.4f\n", row.round, r.time / kHour,
            r.capacity, row.tenant, t.name.c_str(), t.strategy.c_str(), row.reported,
            row.true_need, row.granted, row.borrowed, row.held_end,
            static_cast<long long>(row.balance), row.useful_hours);
  }
  out += "# tenant,name,strategy,admitted,completed,cancelled,deadline_met,completion_h,"
         "allocated_h,useful_h,borrowed_h,cost,preempted,evictions,credits\n";
  for (const TenantResult& t : tenants) {
    AppendF(out, "# %d,%s,%s,%d,%d,%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%d,%d,%lld\n", t.tenant,
            t.name.c_str(), t.strategy.c_str(), t.admitted ? 1 : 0, t.completed ? 1 : 0,
            t.cancelled ? 1 : 0, t.deadline_met ? 1 : 0,
            t.completed ? t.completion_time / kHour : -1.0, t.allocated_hours, t.useful_hours,
            t.borrowed_hours, t.cost, t.preempted_slots, t.evictions,
            static_cast<long long>(t.credits_final));
  }
  AppendF(out,
          "# fleet,allocator=%s,rounds=%zu,mean_util=%.4f,jain_long=%.4f,jain_short=%.4f,"
          "useful_h=%.4f,cost=%.4f,preempted=%d,evictions=%d\n",
          allocator.c_str(), rounds.size(), mean_utilization, jain_long_term, jain_short_term,
          total_useful_hours, total_cost, preempted_slots, evictions);
  return out;
}

std::uint64_t FleetResult::Digest() const {
  const std::string csv = ToCsv();
  return Fnv1a(kFnvOffsetBasis, csv.data(), csv.size());
}

ClusterScheduler::ClusterScheduler(const InstanceTypeCatalog* catalog, const TraceStore* traces,
                                   const EvictionModel* estimator)
    : catalog_(catalog), traces_(traces), estimator_(estimator) {
  PROTEUS_CHECK(catalog_ != nullptr);
  PROTEUS_CHECK(traces_ != nullptr);
}

void ClusterScheduler::SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  obs_.SetTracer(tracer);
  obs_.SetMetrics(metrics);
}

void ClusterScheduler::SetLedger(obs::EventLedger* ledger) { obs_.SetLedger(ledger); }

FleetResult ClusterScheduler::Run(const std::vector<TenantSpec>& specs, Allocator& allocator,
                                  const FleetConfig& config) {
  PROTEUS_CHECK_GT(config.round, 0.0);
  PROTEUS_CHECK_GE(config.rounds, 0);
  const double round_hours = config.round / kHour;
  const Money slot_bid =
      catalog_->Get(config.slot_market.instance_type).on_demand_price * kBidMultiplier;

  SpotMarket market(*catalog_, *traces_);

  std::vector<TenantState> states(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    TenantState& ts = states[i];
    ts.spec = specs[i];
    ts.id = static_cast<int>(i);
    ts.rng = Rng(TenantStreamSeed(config.seed, ts.spec));
    ts.remaining = std::max(0.0, ts.spec.slot_hours);
  }

  std::size_t pool_size = config.threads == 0
                              ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
                              : static_cast<std::size_t>(config.threads);
  ThreadPool pool(pool_size);

  FleetResult result;
  result.allocator = allocator.name();
  result.rounds.reserve(static_cast<std::size_t>(config.rounds));

  obs::Counter* rounds_counter = obs_.GetCounter("cluster.rounds");
  obs::Counter* preempt_counter = obs_.GetCounter("cluster.preempted.slots");
  obs::Counter* evict_counter = obs_.GetCounter("cluster.evictions");
  obs::Counter* od_counter = obs_.GetCounter("cluster.on_demand.slots");
  const obs::Emitter::Region fleet_region =
      obs_.Open("fleet", "cluster", config.start,
                {{"allocator", allocator.name()},
                 {"tenants", static_cast<std::int64_t>(specs.size())}});

  auto capture_credits = [&](TenantState& ts) {
    if (!ts.credits_captured) {
      ts.credits_final = allocator.CreditBalance(ts.id);
      ts.credits_captured = true;
    }
  };

  for (int r = 0; r < config.rounds; ++r) {
    const SimTime t0 = config.start + r * config.round;
    const SimTime t1 = t0 + config.round;
    const obs::Emitter::Region round_region =
        obs_.Open("round", "cluster", t0, {{"round", static_cast<std::int64_t>(r)}});

    // 1. Retire finished/cancelled tenants; their slots return to the pool.
    for (TenantState& ts : states) {
      if (!ts.admitted || ts.retired) {
        continue;
      }
      const bool cancel_due =
          ts.spec.cancel_at.has_value() && *ts.spec.cancel_at <= t0 + kEps && !ts.completed;
      if (!ts.completed && !cancel_due) {
        continue;
      }
      ts.cancelled = cancel_due;
      capture_credits(ts);
      for (const AllocationId id : ts.slots) {
        market.Terminate(id, t0);
      }
      ts.slots.clear();
      allocator.OnTenantRetired(ts.id);
      ts.retired = true;
      obs_.Event("tenant.retire", "cluster", t0,
                 {{"tenant", ts.spec.name},
                  {"reason", std::string(ts.completed ? "completed" : "cancelled")}});
    }

    // 2. Admissions at the round boundary.
    for (TenantState& ts : states) {
      if (ts.admitted || ts.spec.arrival > t0 + kEps) {
        continue;
      }
      if (ts.spec.cancel_at.has_value() && *ts.spec.cancel_at <= ts.spec.arrival + kEps) {
        ts.cancelled = true;  // Cancelled before it ever started.
        continue;
      }
      ts.admitted = true;
      if (ts.spec.strategy == DemandStrategy::kBidBrain) {
        PROTEUS_CHECK(estimator_ != nullptr)
            << "kBidBrain tenant " << ts.spec.name << " needs an eviction estimator";
        BidBrainConfig bc;
        bc.allocation_quantum = std::max(1, ts.spec.max_slots / 4);
        bc.max_spot_instances = ts.spec.max_slots;
        ts.brain = std::make_unique<BidBrain>(catalog_, traces_, estimator_, bc);
      }
      ts.reporter = MakeDemandReporter(ts.spec, ts.brain.get(), config.slot_market, slot_bid);
      allocator.OnTenantAdmitted(ts.id);
      if (ts.remaining <= kEps) {
        ts.completed = true;  // Zero-work job: done on arrival.
        ts.completion_time = t0;
      }
      obs_.Event("tenant.admit", "cluster", t0, {{"tenant", ts.spec.name}});
    }

    // 3. This round's shared capacity.
    const int capacity =
        config.capacity.empty() ? config.fixed_capacity : config.capacity.SlotsAt(t0);
    market.SetCapacity(config.slot_market, capacity);

    std::vector<TenantState*> active;
    for (TenantState& ts : states) {
      if (ts.admitted && !ts.retired) {
        active.push_back(&ts);
      }
    }

    RoundRecord rec;
    rec.round = r;
    rec.time = t0;
    rec.capacity = capacity;
    rec.active_tenants = static_cast<int>(active.size());

    // 4. Demand reports — the only parallel section. Each task touches
    // one tenant's state (its own rng stream and scratch fields), so the
    // outcome is independent of scheduling and thread count.
    pool.ParallelFor(active.size(), [&](std::size_t i) {
      TenantState& ts = *active[i];
      ts.active_phase =
          ts.spec.active_fraction >= 1.0 ? true : ts.rng.Bernoulli(ts.spec.active_fraction);
      ts.true_need =
          TrueNeedSlots(ts.spec, ts.remaining, config.round, config.phi, ts.active_phase);
      TenantProgress progress;
      progress.now = t0;
      progress.round = config.round;
      progress.held_slots = ts.held();
      progress.true_need = ts.true_need;
      progress.max_slots = ts.spec.max_slots;
      progress.remaining_slot_hours = ts.remaining;
      progress.deadline = ts.spec.deadline;
      ts.reported = std::max(0, ts.reporter->Report(progress, ts.rng));
      ts.od_alloc = kInvalidAllocation;
    });

    std::vector<SlotDemand> demands;
    demands.reserve(active.size());
    for (const TenantState* ts : active) {
      demands.push_back({ts->id, ts->reported});
    }

    // 5. Arbitration.
    std::vector<SlotGrant> grants = allocator.Allocate(r, capacity, demands);
    PROTEUS_CHECK_EQ(grants.size(), demands.size());
    rec.conservation_ok = allocator.ConservationHolds();
    PROTEUS_CHECK(rec.conservation_ok) << "credit conservation violated at round " << r;
    rec.escrow = allocator.Escrow();
    rec.balances = allocator.SumBalances();

    // 6. Reconcile market holdings: every shrink before any grow, so the
    // finite market is never transiently overdrawn.
    for (std::size_t i = 0; i < active.size(); ++i) {
      TenantState& ts = *active[i];
      const int target = grants[i].slots;
      const int held_before = ts.held();
      if (held_before <= target) {
        continue;
      }
      // Slots the tenant still wanted but lost are preemptions (provider
      // reclaim: Revoke, eviction billing); the rest it gave up
      // voluntarily (Terminate). Newest slots are released first.
      const int to_release = held_before - target;
      const int preempted = std::max(0, std::min(held_before, ts.true_need) - target);
      const int voluntary = to_release - preempted;
      for (int k = 0; k < to_release; ++k) {
        const AllocationId id = ts.slots.back();
        ts.slots.pop_back();
        if (k < voluntary) {
          market.Terminate(id, t0);
        } else {
          market.Revoke(id, t0);
        }
      }
      if (preempted > 0) {
        ts.preempted += preempted;
        rec.preempted_slots += preempted;
        obs_.Event("tenant.preempt", "cluster", t0,
                   {{"tenant", ts.spec.name}, {"slots", static_cast<std::int64_t>(preempted)}});
      }
    }
    for (std::size_t i = 0; i < active.size(); ++i) {
      TenantState& ts = *active[i];
      const int target = grants[i].slots;
      // One instance per allocation keeps shrink/eviction granularity at
      // a single slot.
      while (ts.held() < target) {
        const std::optional<AllocationId> id =
            market.RequestSpot(config.slot_market, 1, slot_bid, t0);
        if (!id.has_value()) {
          break;  // Spot price above the fleet bid this round.
        }
        ts.slots.push_back(*id);
        ts.billed.push_back(*id);
      }
    }

    // 7. Deadline-driven on-demand top-up (outside the shared pool).
    for (TenantState& ts : states) {
      if (!ts.admitted || ts.retired || ts.completed || ts.remaining <= kEps) {
        continue;
      }
      if (ts.spec.deadline == kNoDeadline || ts.spec.deadline <= t0) {
        continue;
      }
      const double hours_left = (ts.spec.deadline - t0) / kHour;
      const double per_slot = std::max(config.phi, 1e-9) * hours_left;
      const int needed = static_cast<int>(std::ceil(ts.remaining / per_slot - kEps));
      const int od = std::clamp(needed - ts.held(), 0, ts.spec.max_slots - ts.held());
      if (od <= 0) {
        continue;
      }
      ts.od_alloc = market.RequestOnDemand(config.slot_market, od, t0);
      ts.billed.push_back(ts.od_alloc);
      rec.on_demand += od;
      od_counter->Add(static_cast<std::uint64_t>(od));
    }

    // 8. Work accrual: integrate productive slots piecewise over the
    // round (prep delay, evictions, cancellation, completion).
    for (std::size_t i = 0; i < active.size(); ++i) {
      TenantState& ts = *active[i];
      ts.reported_rounds += ts.reported;
      ts.true_rounds += ts.true_need;
      ts.borrowed_hours += grants[i].borrowed * round_hours;

      std::vector<ProdWindow> windows;
      for (const AllocationId id : ts.slots) {
        windows.push_back(WindowOf(market.Get(id), t0, t1, kPrepDelay));
      }
      if (ts.od_alloc != kInvalidAllocation) {
        const Allocation& od = market.Get(ts.od_alloc);
        for (int k = 0; k < od.count; ++k) {
          windows.push_back(WindowOf(od, t0, t1, kPrepDelay));
        }
      }
      // Work stops at cancellation even though retirement happens at the
      // next boundary.
      const SimTime work_stop = ts.spec.cancel_at.has_value() ? *ts.spec.cancel_at : t1;
      // The slots a tenant can actually apply this round: its true need
      // when in an active phase, nothing when idle (idle slots keep
      // state warm; they do not produce).
      const int prod_cap = ts.active_phase ? ts.true_need : 0;

      std::vector<SimTime> cuts = {t0, t1};
      for (const ProdWindow& w : windows) {
        if (w.from > t0 && w.from < t1) cuts.push_back(w.from);
        if (w.to > t0 && w.to < t1) cuts.push_back(w.to);
      }
      if (work_stop > t0 && work_stop < t1) cuts.push_back(work_stop);
      std::sort(cuts.begin(), cuts.end());
      cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

      double useful_this_round = 0.0;
      for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
        const SimTime s = cuts[c];
        const SimTime e = cuts[c + 1];
        if (ts.completed || ts.remaining <= kEps || s >= work_stop) {
          break;
        }
        int online = 0;
        for (const ProdWindow& w : windows) {
          if (w.from <= s + kEps && w.to >= e - kEps) {
            ++online;
          }
        }
        const int productive = std::min(online, prod_cap);
        if (productive <= 0) {
          continue;
        }
        const double seg_hours = (e - s) / kHour;
        const double produced = productive * config.phi * seg_hours;
        if (produced >= ts.remaining - kEps) {
          const double finish_hours = ts.remaining / (productive * config.phi);
          useful_this_round += productive * finish_hours;
          ts.completion_time = s + finish_hours * kHour;
          ts.remaining = 0.0;
          ts.completed = true;
        } else {
          useful_this_round += productive * seg_hours;
          ts.remaining -= produced;
        }
      }
      ts.useful_round = useful_this_round;
      ts.useful_hours += useful_this_round;
      rec.useful_hours += useful_this_round;

      // Billing-hours held this round (prep time included: it is paid).
      for (const AllocationId id : ts.slots) {
        const Allocation& a = market.Get(id);
        SimTime end = t1;
        if (a.eviction_time.has_value()) {
          end = std::min(end, *a.eviction_time);
        }
        ts.allocated_hours += std::max(0.0, end - std::max(t0, a.start)) / kHour * a.count;
      }
      if (ts.od_alloc != kInvalidAllocation) {
        const Allocation& od = market.Get(ts.od_alloc);
        ts.allocated_hours += (t1 - t0) / kHour * od.count;
      }
    }

    // 9. Apply mid-round price evictions and release the round's
    // on-demand top-ups.
    for (TenantState* tsp : active) {
      TenantState& ts = *tsp;
      std::vector<AllocationId> still_running;
      for (const AllocationId id : ts.slots) {
        const Allocation& a = market.Get(id);
        if (a.eviction_time.has_value() && *a.eviction_time <= t1) {
          market.MarkEvicted(id);
          ++ts.evictions;
          ++rec.evictions;
          obs_.Event("tenant.evict", "cluster", *a.eviction_time, {{"tenant", ts.spec.name}});
        } else {
          still_running.push_back(id);
        }
      }
      ts.slots = std::move(still_running);
      if (ts.od_alloc != kInvalidAllocation) {
        market.Terminate(ts.od_alloc, t1);
        ts.od_alloc = kInvalidAllocation;
      }
    }

    // 10. Round accounting.
    std::vector<double> granted_values;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const TenantState& ts = *active[i];
      rec.reported += ts.reported;
      rec.truthful += ts.true_need;
      rec.granted += grants[i].slots;
      rec.borrowed += grants[i].borrowed;
      granted_values.push_back(static_cast<double>(grants[i].slots));

      TenantRound row;
      row.round = r;
      row.tenant = ts.id;
      row.reported = ts.reported;
      row.true_need = ts.true_need;
      row.granted = grants[i].slots;
      row.borrowed = grants[i].borrowed;
      row.held_end = ts.held();
      row.balance = allocator.CreditBalance(ts.id);
      row.useful_hours = ts.useful_round;
      result.tenant_rounds.push_back(row);
    }
    PROTEUS_CHECK_LE(rec.granted, rec.capacity);
    rec.utilization =
        capacity > 0 ? rec.useful_hours / (capacity * round_hours) : 0.0;
    rec.jain_granted = JainIndex(granted_values);
    result.rounds.push_back(rec);

    rounds_counter->Increment();
    if (rec.preempted_slots > 0) {
      preempt_counter->Add(static_cast<std::uint64_t>(rec.preempted_slots));
    }
    if (rec.evictions > 0) {
      evict_counter->Add(static_cast<std::uint64_t>(rec.evictions));
    }
    obs_.Sample(t0, "cluster.utilization", "cluster", rec.utilization);
    obs_.Sample(t0, "cluster.escrow", "cluster", static_cast<double>(rec.escrow));
    obs_.Close(round_region, config.round,
               {{"granted", static_cast<std::int64_t>(rec.granted)},
                {"utilization", rec.utilization}});
  }

  // Horizon: retire everyone still active and settle bills.
  const SimTime horizon = config.start + config.rounds * config.round;
  for (TenantState& ts : states) {
    if (ts.admitted && !ts.retired) {
      capture_credits(ts);
      for (const AllocationId id : ts.slots) {
        market.Terminate(id, horizon);
      }
      ts.slots.clear();
      allocator.OnTenantRetired(ts.id);
      ts.retired = true;
    }
  }

  result.tenants.reserve(states.size());
  std::vector<double> long_term;
  for (TenantState& ts : states) {
    TenantResult tr;
    tr.name = ts.spec.name;
    tr.strategy = DemandStrategyName(ts.spec.strategy);
    tr.tenant = ts.id;
    tr.admitted = ts.admitted;
    tr.completed = ts.completed;
    tr.cancelled = ts.cancelled;
    tr.completion_time = ts.completion_time;
    tr.deadline_met = ts.completed && ts.completion_time <= ts.spec.deadline + kEps;
    tr.allocated_hours = ts.allocated_hours;
    tr.useful_hours = ts.useful_hours;
    tr.borrowed_hours = ts.borrowed_hours;
    tr.reported_slot_rounds = ts.reported_rounds;
    tr.true_slot_rounds = ts.true_rounds;
    tr.preempted_slots = ts.preempted;
    tr.evictions = ts.evictions;
    tr.credits_final = ts.credits_final;
    for (const AllocationId id : ts.billed) {
      tr.cost += market.Bill(id, horizon + kHour).charged;
    }
    result.total_cost += tr.cost;
    result.total_useful_hours += tr.useful_hours;
    result.preempted_slots += tr.preempted_slots;
    result.evictions += tr.evictions;
    if (ts.admitted) {
      long_term.push_back(tr.allocated_hours);
    }
    result.tenants.push_back(std::move(tr));
  }

  double util_sum = 0.0;
  double jain_sum = 0.0;
  int jain_rounds = 0;
  for (const RoundRecord& rec : result.rounds) {
    util_sum += rec.utilization;
    if (rec.active_tenants > 0) {
      jain_sum += rec.jain_granted;
      ++jain_rounds;
    }
  }
  result.mean_utilization =
      result.rounds.empty() ? 0.0 : util_sum / static_cast<double>(result.rounds.size());
  result.jain_short_term = jain_rounds > 0 ? jain_sum / jain_rounds : 1.0;
  result.jain_long_term = JainIndex(long_term);

  obs_.GetGauge("cluster.utilization.mean")->Set(result.mean_utilization);
  obs_.GetGauge("cluster.fairness.jain_long")->Set(result.jain_long_term);
  obs_.GetGauge("cluster.fairness.jain_short")->Set(result.jain_short_term);
  obs_.GetGauge("cluster.cost.dollars")->Set(result.total_cost);
  for (const TenantResult& t : result.tenants) {
    const obs::Labels labels = {{"tenant", t.name}};
    obs_.GetGauge("cluster.tenant.allocated_hours", labels)->Set(t.allocated_hours);
    obs_.GetGauge("cluster.tenant.useful_hours", labels)->Set(t.useful_hours);
    obs_.GetGauge("cluster.tenant.credits", labels)->Set(static_cast<double>(t.credits_final));
    obs_.GetGauge("cluster.tenant.cost.dollars", labels)->Set(t.cost);
  }
  obs_.Close(fleet_region, horizon - config.start,
             {{"mean_util", result.mean_utilization},
              {"jain_long", result.jain_long_term},
              {"cost", result.total_cost}});
  return result;
}

}  // namespace cluster
}  // namespace proteus
