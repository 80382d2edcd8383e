// Tier-aware acquisition: split a capacity target across the three
// reliability tiers on cost vs. expected loss (ISSUE 10).
//
// The paper's BidBrain trades two tiers — reliable on-demand and
// transient spot. The ultra-transient serverless tier adds a third point
// on the cost/reliability frontier: dirt-cheap burstable slots with zero
// eviction warning and a per-hour revocation probability (beta) an order
// of magnitude above spot's. TieredAcquisitionPolicy prices all three
// with one number, the *effective* cost per useful vCPU-hour:
//
//   effective(t) = P_t / max(eps, 1 - beta_t * penalty_t)
//
// where P_t is the tier's dollar price per vCPU-hour, beta_t its
// probability of losing the allocation within the hour, and penalty_t
// the fraction of an hour's useful work destroyed when that loss lands
// (rollback depth, re-preload, detector latency — zero-warning losses
// carry a larger penalty than warned drains). Capacity then fills
// cheapest-effective-first, subject to a reliable floor and a serverless
// exposure cap that mirrors the runtime-side TierGuard bound.
//
// Decide() emits spot-market actions only (the transient share), so the
// policy is backtestable through the existing BacktestEngine unchanged.
// ComputeSplit() reports the full three-way split; no driver acquires
// its serverless share (ProteusRuntime sizes its serverless enrollment
// from ProteusConfig::serverless_target).
//
// Beside it live the baseline policies the job simulator and the Policy
// Lab (DESIGN.md §9) share:
//
//  - OnDemandOnlyPolicy:    the all-on-demand reference (§6.3's
//                           baseline). Never touches the spot market.
//  - FixedDeltaSpotPolicy:  the "standard" strategy family: keep a fixed
//                           vCPU capacity target topped up on the
//                           currently cheapest market, always bidding
//                           (current price + delta). delta -> 0 chases
//                           free compute; large delta approximates
//                           bid-the-on-demand-price.
#ifndef SRC_BIDBRAIN_TIER_POLICY_H_
#define SRC_BIDBRAIN_TIER_POLICY_H_

#include <optional>
#include <string>
#include <vector>

#include "src/bidbrain/acquisition_policy.h"
#include "src/bidbrain/eviction_estimator.h"
#include "src/market/instance_type.h"
#include "src/market/trace_store.h"

namespace proteus {

// Spot vCPUs in `live`; on-demand allocations and types missing from the
// catalog count zero.
int LiveSpotVcpus(const InstanceTypeCatalog& catalog, const std::vector<LiveAllocation>& live);

// The market with the lowest spot price per vCPU at `now` (the first on a
// tie), or nullopt when no market's type is in the catalog.
std::optional<MarketKey> CheapestSpotMarket(const InstanceTypeCatalog& catalog,
                                            const TraceStore& prices, SimTime now);

class OnDemandOnlyPolicy : public AcquisitionPolicy {
 public:
  std::string name() const override { return "on_demand"; }
  std::vector<BidAction> Decide(SimTime /*now*/,
                                const std::vector<LiveAllocation>& /*live*/) const override {
    return {};
  }
  bool OnDemandDoesWork() const override { return true; }
};

class FixedDeltaSpotPolicy : public AcquisitionPolicy {
 public:
  FixedDeltaSpotPolicy(const InstanceTypeCatalog* catalog, const TraceStore* prices,
                       Money bid_delta, int target_vcpus);

  std::string name() const override;
  std::vector<BidAction> Decide(SimTime now,
                                const std::vector<LiveAllocation>& live) const override;

  Money bid_delta() const { return bid_delta_; }

 private:
  const InstanceTypeCatalog* catalog_;
  const TraceStore* prices_;
  Money bid_delta_;
  int target_vcpus_;
};

struct TieredPolicyConfig {
  int target_vcpus = 512;  // Total capacity target across all tiers.

  // Reliable tier (on-demand): beta = 0 by definition; priced at the
  // catalog's on-demand rate for this type.
  std::string reliable_type = "c4.xlarge";

  // Ultra-transient tier (serverless): beta_serverless should fold in
  // both the burst-duration cap and the storm rate (see
  // ServerlessTierConfig).
  double serverless_beta = 0.30;
};

// One evaluated capacity split, exposed for drivers and tests.
struct TierSplit {
  int reliable_vcpus = 0;
  int transient_vcpus = 0;
  int serverless_vcpus = 0;
  // Effective $ per useful vCPU-hour each tier was scored at.
  double reliable_effective = 0.0;
  double transient_effective = 0.0;
  double serverless_effective = 0.0;
};

class TieredAcquisitionPolicy : public AcquisitionPolicy {
 public:
  TieredAcquisitionPolicy(const InstanceTypeCatalog* catalog, const TraceStore* prices,
                          const EvictionModel* estimator, TieredPolicyConfig config);

  std::string name() const override;

  // Emits spot acquisitions topping the *transient* share of the split
  // up to its target; the reliable floor and serverless share belong to
  // the driver (BacktestEngine models them as the fixed on-demand tier
  // and nothing, respectively).
  std::vector<BidAction> Decide(SimTime now,
                                const std::vector<LiveAllocation>& live) const override;

  // The full three-way split at `now` given the live footprint.
  TierSplit ComputeSplit(SimTime now) const;

  const TieredPolicyConfig& config() const { return config_; }

 private:
  // Best spot market right now by effective cost per useful vCPU-hour
  // (price+delta, beta from the estimator). Returns false if no market
  // has a usable price.
  bool BestSpotMarket(SimTime now, MarketKey* market, Money* price, double* effective) const;

  const InstanceTypeCatalog* catalog_;
  const TraceStore* prices_;
  const EvictionModel* estimator_;
  TieredPolicyConfig config_;
};

}  // namespace proteus

#endif  // SRC_BIDBRAIN_TIER_POLICY_H_
