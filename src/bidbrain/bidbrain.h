// BidBrain: Proteus' resource-allocation policy (§4).
//
// At every decision point (periodic, just before a billing-hour boundary,
// and immediately after an eviction) BidBrain enumerates candidate
// allocations — (market, bid delta, count) tuples priced at the current
// spot price — and acquires the best candidate if and only if it lowers
// the footprint's expected cost per unit work (Eq. 4). Near the end of an
// allocation's billing hour it decides whether renewing or terminating
// the allocation yields the lower cost-per-work. On-demand resources are
// acquired as required and never terminated (§4.2), and are modeled as
// producing no work (Fig. 6: the reliable allocation has W = 0 — in
// stages 2/3 reliable machines serve state, they do not run workers).
#ifndef SRC_BIDBRAIN_BIDBRAIN_H_
#define SRC_BIDBRAIN_BIDBRAIN_H_

#include <optional>
#include <string>
#include <vector>

#include "src/bidbrain/acquisition_policy.h"
#include "src/bidbrain/app_profile.h"
#include "src/bidbrain/cost_model.h"
#include "src/bidbrain/eviction_estimator.h"
#include "src/market/instance_type.h"
#include "src/market/trace_store.h"
#include "src/obs/emitter.h"

namespace proteus {

struct BidBrainConfig {
  // Bid deltas considered over the current market price (§4.2 range).
  std::vector<Money> bid_deltas = {0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 0.4};
  // Instances per candidate spot allocation.
  int allocation_quantum = 16;
  // Cap on total spot instances (application scalability limit).
  int max_spot_instances = 192;
  AppProfile app;
};

// LiveAllocation and BidAction moved to acquisition_policy.h; BidBrain
// is the paper's AcquisitionPolicy instance.
class BidBrain : public AcquisitionPolicy {
 public:
  BidBrain(const InstanceTypeCatalog* catalog, const TraceStore* prices,
           const EvictionModel* estimator, BidBrainConfig config);

  // Attaches BidBrain to an observability sink: every Decide() records a
  // "decision" instant on the "bidbrain" track (timestamped with the
  // caller's market time) carrying E_A, the chosen bid delta, and the
  // candidate's eviction probability beta. Either pointer may be null.
  void SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  std::string name() const override { return "bidbrain"; }

  // Evaluates the footprint at `now` and returns the actions to take.
  std::vector<BidAction> Decide(SimTime now,
                                const std::vector<LiveAllocation>& live) const override;

  // Expected cost-per-work of the given live footprint (diagnostics).
  double FootprintCostPerWork(SimTime now, const std::vector<LiveAllocation>& live) const;

  const BidBrainConfig& config() const { return config_; }

 private:
  AllocationPlan PlanFor(SimTime now, const LiveAllocation& alloc) const;
  std::vector<AllocationPlan> PlansFor(SimTime now,
                                       const std::vector<LiveAllocation>& live) const;

  const InstanceTypeCatalog* catalog_;
  const TraceStore* prices_;
  const EvictionModel* estimator_;
  BidBrainConfig config_;

  // Re-resolves the cached metric handles against obs_'s registry.
  void BindMetrics();

  // Observability; Decide() is logically const, so recording into
  // external sinks does not touch BidBrain state.
  obs::Emitter obs_;
  obs::Counter* decisions_counter_ = nullptr;
  obs::Counter* acquire_counter_ = nullptr;
  obs::Counter* terminate_counter_ = nullptr;
  obs::Gauge* cost_per_work_gauge_ = nullptr;
};

}  // namespace proteus

#endif  // SRC_BIDBRAIN_BIDBRAIN_H_
