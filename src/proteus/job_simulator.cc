#include "src/proteus/job_simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "src/bidbrain/app_profile.h"
#include "src/bidbrain/tier_policy.h"
#include "src/common/logging.h"

namespace proteus {

namespace {
constexpr WorkUnits kWorkEpsilon = 1e-6;
constexpr SimDuration kInstant = 1.0;  // Minimum event spacing.
constexpr SimDuration kDecisionPeriod = 2 * kMinute;
// Safety horizon: a job gives up after this much simulated time.
constexpr SimDuration kMaxRuntime = 10 * kDay;
// Checkpoint-restart recovery (§6.3).
constexpr SimDuration kCheckpointWriteTime = 90 * kSecond;
constexpr SimDuration kCheckpointRestartDelay = 5 * kMinute;

// The standard bidding strategy (§6.3): top the spot fleet up to the
// capacity target on the market with the lowest price per vCPU, bidding
// the on-demand price. With ways > 1 it is Flint's diversification (§8):
// the deficit is split over the `ways` cheapest markets so one
// revocation cannot take everything.
class StandardSpotPolicy final : public AcquisitionPolicy {
 public:
  StandardSpotPolicy(const InstanceTypeCatalog* catalog, const TraceStore* prices,
                     int target_vcpus, int ways)
      : catalog_(catalog), prices_(prices), target_vcpus_(target_vcpus), ways_(ways) {}

  std::string name() const override { return ways_ == 1 ? "standard" : "flint"; }

  std::vector<BidAction> Decide(SimTime now,
                                const std::vector<LiveAllocation>& live) const override {
    const int deficit = target_vcpus_ - LiveSpotVcpus(*catalog_, live);
    if (deficit <= 0) {
      return {};
    }
    std::vector<MarketKey> picks;
    if (ways_ == 1) {
      if (const std::optional<MarketKey> key = CheapestSpotMarket(*catalog_, *prices_, now)) {
        picks.push_back(*key);
      }
    } else {
      std::vector<std::pair<double, MarketKey>> ranked;
      for (const MarketKey& key : prices_->Keys()) {
        const InstanceType* type = catalog_->Find(key.instance_type);
        if (type != nullptr) {
          ranked.emplace_back(prices_->Get(key).PriceAt(now) / type->vcpus, key);
        }
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (std::size_t w = 0; w < ranked.size() && w < static_cast<std::size_t>(ways_); ++w) {
        picks.push_back(ranked[w].second);
      }
    }
    std::vector<BidAction> actions;
    const int share = picks.empty() ? 0 : deficit / static_cast<int>(picks.size());
    for (const MarketKey& key : picks) {
      const InstanceType& type = catalog_->Get(key.instance_type);
      const int count = (share + type.vcpus - 1) / type.vcpus;
      if (count > 0) {
        actions.push_back(
            {BidAction::Kind::kAcquire, key, count, type.on_demand_price, kInvalidAllocation});
      }
    }
    return actions;
  }

 private:
  const InstanceTypeCatalog* catalog_;
  const TraceStore* prices_;
  int target_vcpus_;
  int ways_;
};

// Terminates whatever is still running (accounting pro-rates the final
// hour) and fills the total and per-allocation bills.
void FinalizeBill(SpotMarket& market, SimTime job_end, JobResult& result) {
  for (const Allocation& alloc : market.allocations()) {
    if (alloc.running()) {
      market.Terminate(alloc.id, job_end);
    }
  }
  result.bill = ComputeTotalJobBill(market, job_end);
  result.allocation_bills.reserve(market.allocations().size());
  for (const Allocation& alloc : market.allocations()) {
    AllocationBillDetail detail;
    detail.id = alloc.id;
    detail.on_demand = alloc.kind == AllocationKind::kOnDemand;
    detail.evicted = alloc.state == AllocationState::kEvicted && alloc.end <= job_end;
    detail.count = alloc.count;
    detail.bill = ComputeJobBill(market, alloc.id, job_end);
    result.allocation_bills.push_back(std::move(detail));
  }
}
}  // namespace

const char* SchemeName(SchemeKind scheme) {
  switch (scheme) {
    case SchemeKind::kOnDemandOnly:
      return "OnDemandOnly";
    case SchemeKind::kStandardCheckpoint:
      return "Standard+Checkpoint";
    case SchemeKind::kStandardAgileML:
      return "Standard+AgileML";
    case SchemeKind::kProteus:
      return "Proteus";
    case SchemeKind::kFlintDiversified:
      return "Flint-Diversified";
  }
  return "?";
}

JobSpec JobSpec::ForReferenceDuration(const InstanceTypeCatalog& catalog, const std::string& type,
                                      int count, SimDuration duration, double phi) {
  JobSpec spec;
  spec.reference_type = type;
  spec.reference_count = count;
  const InstanceType& it = catalog.Get(type);
  spec.total_work = count * it.WorkPerHour() * (duration / kHour) * phi;
  return spec;
}

JobSimulator::JobSimulator(const InstanceTypeCatalog* catalog, const TraceStore* traces,
                           const EvictionModel* estimator)
    : catalog_(catalog), traces_(traces), estimator_(estimator) {
  PROTEUS_CHECK(catalog_ != nullptr);
  PROTEUS_CHECK(traces_ != nullptr);
  PROTEUS_CHECK(estimator_ != nullptr);
}

JobResult JobSimulator::Run(SchemeKind scheme, const JobSpec& job, const SchemeConfig& config,
                            SimTime start) const {
  if (scheme == SchemeKind::kOnDemandOnly) {
    return Run(OnDemandOnlyPolicy(), job, config, start);
  }
  if (scheme == SchemeKind::kProteus) {
    return Run(BidBrain(catalog_, traces_, estimator_, config.bidbrain), job, config, start);
  }
  const StandardSpotPolicy standard(catalog_, traces_, config.standard_target_vcpus,
                                    scheme == SchemeKind::kFlintDiversified ? 3 : 1);
  return Run(standard,
             scheme == SchemeKind::kStandardAgileML ? Recovery::kElastic
                                                    : Recovery::kCheckpointRestart,
             job, config, start);
}

JobResult JobSimulator::Run(const AcquisitionPolicy& policy, const JobSpec& job,
                            const SchemeConfig& config, SimTime start) const {
  return Run(policy, Recovery::kElastic, job, config, start);
}

JobResult JobSimulator::Run(const AcquisitionPolicy& policy, Recovery recovery,
                            const JobSpec& job, const SchemeConfig& config, SimTime start) const {
  const std::vector<MarketKey> markets = traces_->Keys();
  PROTEUS_CHECK(!markets.empty());
  const std::string& zone0 = markets.front().zone;
  Footprint footprint(*catalog_, *traces_, start);
  // Checkpoint schemes start all-spot; AgileML schemes hold the reliable
  // serving tier.
  if (policy.OnDemandDoesWork()) {
    footprint.live.push_back(footprint.market.RequestOnDemand(
        {zone0, job.reference_type}, job.reference_count, start));
  } else if (recovery == Recovery::kElastic) {
    footprint.live.push_back(footprint.market.RequestOnDemand(
        {zone0, config.on_demand_type}, config.on_demand_count, start));
  }
  JobResult result = RunJob(policy, recovery, job, footprint);
  // Job over: release everything still running (accounting pro-rates the
  // final hour; the market itself would bill the full hour).
  FinalizeBill(footprint.market, footprint.now, result);
  return result;
}

JobResult JobSimulator::RunJob(const AcquisitionPolicy& policy, Recovery recovery,
                               const JobSpec& job, Footprint& footprint) const {
  SpotMarket& market = footprint.market;
  std::vector<AllocationId>& live = footprint.live;
  auto& terminations = footprint.terminations;
  SimTime& t = footprint.now;
  SimTime& paused_until = footprint.paused_until;
  SimTime& next_decision = footprint.next_decision;

  // Both recovery modes run with AgileML's phi and sigma (Table 2).
  const AppProfile profile = AgileMLProfile();
  const bool on_demand_workers = policy.OnDemandDoesWork();
  const bool checkpointing = recovery == Recovery::kCheckpointRestart;
  const double rate_factor = checkpointing ? 1.0 - kCheckpointOverhead : 1.0;

  JobResult result;
  const SimTime start = t;
  const SimTime hard_end = start + kMaxRuntime;
  WorkUnits done = 0.0;
  WorkUnits checkpoint_work = 0.0;
  SimTime next_checkpoint = std::numeric_limits<SimTime>::infinity();
  SimDuration checkpoint_interval = kHour;
  if (checkpointing) {
    // MTTF-derived checkpoint interval (Young's formula), from the
    // trained eviction stats at the standard bid delta.
    const std::optional<MarketKey> key = CheapestSpotMarket(*catalog_, *traces_, t);
    PROTEUS_CHECK(key.has_value());
    const InstanceType& type = catalog_->Get(key->instance_type);
    const Money delta = std::max(0.001, type.on_demand_price - traces_->Get(*key).PriceAt(t));
    const EvictionStats stats = estimator_->Estimate(*key, delta);
    const SimDuration mttf = kHour / std::max(stats.beta, 0.02);
    checkpoint_interval = std::max(5 * kMinute, std::sqrt(2.0 * kCheckpointWriteTime * mttf));
    next_checkpoint = t + checkpoint_interval;
  }

  // Work rate in WorkUnits per second. On-demand machines work only when
  // the policy says so (in AgileML schemes they are the reliable serving
  // tier; Fig. 6 models them as W = 0).
  auto work_rate = [&]() {
    double vcpus = 0.0;
    for (const AllocationId id : live) {
      const Allocation& alloc = market.Get(id);
      const bool counts = on_demand_workers ? alloc.kind == AllocationKind::kOnDemand
                                            : alloc.kind == AllocationKind::kSpot;
      if (counts) {
        vcpus += alloc.count * catalog_->Get(alloc.market.instance_type).vcpus;
      }
    }
    return vcpus * profile.phi * rate_factor / kHour;  // vCPU-hours per second.
  };

  while (done + kWorkEpsilon < job.total_work && t < hard_end) {
    const double rate = work_rate();
    SimTime next = std::min(hard_end, next_decision);
    for (const AllocationId id : live) {
      const auto& ev = market.Get(id).eviction_time;
      if (ev.has_value()) {
        next = std::min(next, std::max(*ev, t + kInstant));
      }
    }
    for (const auto& [when, unused] : terminations) {
      next = std::min(next, std::max(when, t + kInstant));
    }
    next = std::min(next, std::max(next_checkpoint, t + kInstant));
    if (paused_until > t) {
      next = std::min(next, paused_until);
    } else if (rate > 0.0) {
      next = std::min(next, t + (job.total_work - done) / rate);
    }
    next = std::max(next, t + kInstant);

    // Accrue work over [max(t, paused_until), next).
    const SimTime active_from = std::max(t, paused_until);
    if (next > active_from) {
      done += rate * (next - active_from);
    }
    t = next;
    if (done + kWorkEpsilon >= job.total_work) {
      break;
    }

    // Process evictions due now (correlated within an allocation).
    std::vector<AllocationId> evicted_now;
    for (const AllocationId id : live) {
      const auto& ev = market.Get(id).eviction_time;
      if (ev.has_value() && *ev <= t && market.Get(id).running()) {
        evicted_now.push_back(id);
      }
    }
    for (const AllocationId id : evicted_now) {
      market.MarkEvicted(id);
      live.erase(std::remove(live.begin(), live.end(), id), live.end());
      ++result.evictions;
    }
    if (!evicted_now.empty()) {
      if (checkpointing) {
        done = std::min(done, checkpoint_work);  // Roll back to checkpoint.
        paused_until = std::max(paused_until, t + kCheckpointRestartDelay);
      } else {
        paused_until = std::max(paused_until, t + profile.lambda);
      }
      next_decision = t;  // React immediately (§5).
    }

    // Scheduled (policy-requested) terminations.
    for (auto it = terminations.begin(); it != terminations.end();) {
      if (it->first <= t) {
        const AllocationId id = it->second;
        if (market.Get(id).running()) {
          market.Terminate(id, t);
          live.erase(std::remove(live.begin(), live.end(), id), live.end());
        }
        it = terminations.erase(it);
      } else {
        ++it;
      }
    }

    // Checkpoint tick (the throughput overhead is folded into rate_factor).
    if (t >= next_checkpoint) {
      checkpoint_work = done;
      next_checkpoint = t + checkpoint_interval;
    }

    // Decision point: the policy seam. A restarting checkpoint job sits
    // its decisions out.
    if (t >= next_decision) {
      if (!checkpointing || paused_until <= t) {
        std::vector<LiveAllocation> view;
        for (const AllocationId id : live) {
          const Allocation& alloc = market.Get(id);
          view.push_back({alloc.id, alloc.market, alloc.count, alloc.bid,
                          alloc.kind == AllocationKind::kOnDemand, alloc.start});
        }
        for (const BidAction& action : policy.Decide(t, view)) {
          if (action.kind == BidAction::Kind::kAcquire) {
            if (action.count <= 0) {
              continue;  // Defensive against misbehaving custom policies.
            }
            const auto id = market.RequestSpot(action.market, action.count, action.bid, t);
            if (id.has_value()) {
              live.push_back(*id);
              ++result.acquisitions;
              paused_until = std::max(paused_until, t + profile.sigma);
            }
          } else if (action.target != kInvalidAllocation &&
                     footprint.scheduled_termination.insert(action.target).second) {
            const Allocation& alloc = market.Get(action.target);
            terminations.emplace_back(alloc.HourEnd(t) - 1.0, action.target);
          }
        }
      }
      next_decision = t + kDecisionPeriod;
    }
  }

  result.completed = done + kWorkEpsilon >= job.total_work;
  result.runtime = t - start;
  result.work_done = done;
  return result;
}

}  // namespace proteus
