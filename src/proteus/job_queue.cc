#include "src/proteus/job_queue.h"

#include <algorithm>

#include "src/bidbrain/bidbrain.h"

namespace proteus {

namespace {

// Cost attributable to the window [begin, end): every billing hour is
// charged pro-rata to the windows that overlap it; hours refunded by an
// eviction cost nothing (matches §6.3 accounting, generalized from one
// job to a sequence).
Money WindowCost(const SpotMarket& market, const Allocation& alloc, SimTime begin, SimTime end) {
  const SimTime usage_end = std::min(end, alloc.EndOrInfinity());
  if (usage_end <= alloc.start || usage_end <= begin) {
    return 0.0;
  }
  const bool evicted = alloc.state == AllocationState::kEvicted;
  const PriceSeries* series =
      alloc.kind == AllocationKind::kSpot ? &market.traces().Get(alloc.market) : nullptr;
  const Money od_rate = market.catalog().Get(alloc.market.instance_type).on_demand_price;
  Money cost = 0.0;
  for (SimTime hour_start = alloc.start; hour_start < usage_end; hour_start += kHour) {
    const SimTime hour_end = hour_start + kHour;
    if (hour_end <= begin) {
      continue;
    }
    if (evicted && hour_end > alloc.end) {
      continue;  // The refunded (in-progress-at-eviction) hour.
    }
    const Money rate = series != nullptr ? series->PriceAt(hour_start) : od_rate;
    const double overlap =
        std::max(0.0, std::min(hour_end, end) - std::max(hour_start, begin)) / kHour;
    cost += rate * alloc.count * overlap;
  }
  return cost;
}
}  // namespace

JobQueueSimulator::JobQueueSimulator(const InstanceTypeCatalog* catalog, const TraceStore* traces,
                                     const EvictionModel* estimator)
    : sim_(catalog, traces, estimator) {}

JobQueueResult JobQueueSimulator::Run(const std::vector<QueuedJob>& jobs,
                                      const SchemeConfig& config, SimTime start) const {
  if (jobs.empty()) {
    return {};  // Nothing queued: no footprint, no cost, zero makespan.
  }
  JobSimulator::Footprint footprint(*sim_.catalog_, *sim_.traces_, start);
  SpotMarket& market = footprint.market;
  // One BidBrain and one reliable on-demand allocation for the whole queue.
  const BidBrain bidbrain(sim_.catalog_, sim_.traces_, sim_.estimator_, config.bidbrain);
  const std::string zone0 = sim_.traces_->Keys().front().zone;
  const AllocationId od =
      market.RequestOnDemand({zone0, config.on_demand_type}, config.on_demand_count, start);
  footprint.live.push_back(od);

  JobQueueResult result;
  for (const QueuedJob& queued : jobs) {
    const SimTime job_start = footprint.now;
    const JobResult run =
        sim_.RunJob(bidbrain, JobSimulator::Recovery::kElastic, queued.spec, footprint);
    QueuedJobResult job_result;
    job_result.name = queued.name;
    job_result.completed = run.completed;
    job_result.runtime = run.runtime;
    job_result.evictions = run.evictions;
    for (const auto& alloc : market.allocations()) {
      job_result.cost += WindowCost(market, alloc, job_start, footprint.now);
    }
    result.jobs.push_back(job_result);
  }

  // --- Queue drained: shutdown policy (§5) ---
  const SimTime queue_end = footprint.now;
  market.Terminate(od, queue_end);  // On-demand released immediately.
  // Spot allocations are held to the end of their billing hours hoping
  // AWS evicts them first (making the final hour free).
  for (const AllocationId id : footprint.live) {
    const Allocation& alloc = market.Get(id);
    if (alloc.kind != AllocationKind::kSpot || !alloc.running()) {
      continue;
    }
    const SimTime hour_end = alloc.HourEnd(queue_end);
    if (alloc.eviction_time.has_value() && *alloc.eviction_time < hour_end) {
      market.MarkEvicted(id);
      result.shutdown_refunds +=
          market.traces().Get(alloc.market).PriceAt(alloc.HourStart(queue_end)) * alloc.count;
    } else {
      market.Terminate(id, hour_end - 1.0);
    }
  }

  const BillingBreakdown total = market.TotalBill(queue_end + kDay);
  result.total_cost = total.charged;
  result.makespan = queue_end - start;
  return result;
}

}  // namespace proteus
