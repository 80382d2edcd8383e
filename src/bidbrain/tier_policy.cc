#include "src/bidbrain/tier_policy.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "src/common/logging.h"

namespace proteus {

namespace {

constexpr double kEps = 1e-6;

// Effective $ per useful vCPU-hour: price inflated by the expected
// fraction of the hour's work a loss destroys.
double Effective(double price_per_vcpu_hour, double beta, double penalty) {
  const double useful = std::max(kEps, 1.0 - beta * penalty);
  return price_per_vcpu_hour / useful;
}

}  // namespace

int LiveSpotVcpus(const InstanceTypeCatalog& catalog, const std::vector<LiveAllocation>& live) {
  int vcpus = 0;
  for (const LiveAllocation& alloc : live) {
    if (alloc.on_demand) {
      continue;
    }
    const InstanceType* type = catalog.Find(alloc.market.instance_type);
    if (type != nullptr) {
      vcpus += alloc.count * type->vcpus;
    }
  }
  return vcpus;
}

std::optional<MarketKey> CheapestSpotMarket(const InstanceTypeCatalog& catalog,
                                            const TraceStore& prices, SimTime now) {
  std::optional<MarketKey> best;
  double best_ppc = std::numeric_limits<double>::infinity();
  for (const MarketKey& key : prices.Keys()) {
    const InstanceType* type = catalog.Find(key.instance_type);
    if (type == nullptr) {
      continue;
    }
    const double ppc = prices.Get(key).PriceAt(now) / type->vcpus;
    if (ppc < best_ppc) {
      best_ppc = ppc;
      best = key;
    }
  }
  return best;
}

FixedDeltaSpotPolicy::FixedDeltaSpotPolicy(const InstanceTypeCatalog* catalog,
                                           const TraceStore* prices, Money bid_delta,
                                           int target_vcpus)
    : catalog_(catalog), prices_(prices), bid_delta_(bid_delta), target_vcpus_(target_vcpus) {
  PROTEUS_CHECK(catalog_ != nullptr);
  PROTEUS_CHECK(prices_ != nullptr);
  PROTEUS_CHECK_GE(bid_delta_, 0.0);
  PROTEUS_CHECK_GT(target_vcpus_, 0);
}

std::string FixedDeltaSpotPolicy::name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "fixed_delta_%.4f", bid_delta_);
  return buf;
}

std::vector<BidAction> FixedDeltaSpotPolicy::Decide(
    SimTime now, const std::vector<LiveAllocation>& live) const {
  const int deficit = target_vcpus_ - LiveSpotVcpus(*catalog_, live);
  if (deficit <= 0) {
    return {};
  }
  const std::optional<MarketKey> best = CheapestSpotMarket(*catalog_, *prices_, now);
  if (!best.has_value()) {
    return {};
  }
  const InstanceType& type = catalog_->Get(best->instance_type);
  const int count = (deficit + type.vcpus - 1) / type.vcpus;
  return {{BidAction::Kind::kAcquire, *best, count,
           prices_->Get(*best).PriceAt(now) + bid_delta_, kInvalidAllocation}};
}

TieredAcquisitionPolicy::TieredAcquisitionPolicy(const InstanceTypeCatalog* catalog,
                                                 const TraceStore* prices,
                                                 const EvictionModel* estimator,
                                                 TieredPolicyConfig config)
    : catalog_(catalog), prices_(prices), estimator_(estimator), config_(std::move(config)) {
  PROTEUS_CHECK(catalog_ != nullptr);
  PROTEUS_CHECK(prices_ != nullptr);
  PROTEUS_CHECK(estimator_ != nullptr);
  PROTEUS_CHECK_GT(config_.target_vcpus, 0);
  PROTEUS_CHECK_GE(config_.bid_delta, 0.0);
  PROTEUS_CHECK_GT(config_.serverless_slot_vcpus, 0);
  PROTEUS_CHECK_GE(config_.serverless_beta, 0.0);
  PROTEUS_CHECK_LE(config_.serverless_beta, 1.0);
  PROTEUS_CHECK_GE(config_.max_serverless_fraction, 0.0);
  PROTEUS_CHECK_LE(config_.max_serverless_fraction, 1.0);
  PROTEUS_CHECK_GE(config_.min_reliable_fraction, 0.0);
  PROTEUS_CHECK_LE(config_.min_reliable_fraction, 1.0);
}

std::string TieredAcquisitionPolicy::name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "tiered_%.2f", config_.serverless_beta);
  return buf;
}

bool TieredAcquisitionPolicy::BestSpotMarket(SimTime now, MarketKey* market, Money* price,
                                             double* effective) const {
  const MarketKey* best = nullptr;
  double best_effective = std::numeric_limits<double>::infinity();
  Money best_price = 0.0;
  const std::vector<MarketKey> markets = prices_->Keys();
  for (const MarketKey& key : markets) {
    const InstanceType* type = catalog_->Find(key.instance_type);
    if (type == nullptr || type->vcpus <= 0) {
      continue;
    }
    const Money p = prices_->Get(key).PriceAt(now);
    const EvictionStats stats = estimator_->Estimate(key, config_.bid_delta);
    const double eff = Effective((p + config_.bid_delta) / type->vcpus, stats.beta,
                                 config_.transient_loss_penalty);
    if (eff < best_effective) {
      best_effective = eff;
      best = &key;
      best_price = p;
    }
  }
  if (best == nullptr) {
    return false;
  }
  *market = *best;
  *price = best_price;
  *effective = best_effective;
  return true;
}

TierSplit TieredAcquisitionPolicy::ComputeSplit(SimTime now) const {
  TierSplit split;
  const InstanceType& reliable_type = catalog_->Get(config_.reliable_type);
  split.reliable_effective =
      Effective(reliable_type.on_demand_price / reliable_type.vcpus, /*beta=*/0.0,
                /*penalty=*/0.0);
  split.serverless_effective =
      Effective(config_.serverless_price_per_slot_hour / config_.serverless_slot_vcpus,
                config_.serverless_beta, config_.serverless_loss_penalty);
  MarketKey spot_market;
  Money spot_price = 0.0;
  const bool have_spot =
      BestSpotMarket(now, &spot_market, &spot_price, &split.transient_effective);
  if (!have_spot) {
    split.transient_effective = std::numeric_limits<double>::infinity();
  }

  // The reliable floor is non-negotiable (the serving tier), then the
  // remainder fills cheapest-effective-first with the serverless share
  // clamped to its exposure cap.
  const int target = config_.target_vcpus;
  split.reliable_vcpus =
      std::min(target, static_cast<int>(config_.min_reliable_fraction * target + 0.999999));
  int remaining = target - split.reliable_vcpus;
  const int serverless_cap = static_cast<int>(config_.max_serverless_fraction * target);
  if (split.serverless_effective < split.transient_effective) {
    split.serverless_vcpus = std::min(remaining, serverless_cap);
    remaining -= split.serverless_vcpus;
    split.transient_vcpus = remaining;
  } else {
    split.transient_vcpus = remaining;
  }
  // If spot is unusable (no priced market), overflow the transient share
  // into serverless up to the cap rather than stalling the job.
  if (!have_spot && split.transient_vcpus > 0) {
    const int shift = std::min(split.transient_vcpus, serverless_cap - split.serverless_vcpus);
    if (shift > 0) {
      split.serverless_vcpus += shift;
      split.transient_vcpus -= shift;
    }
  }
  return split;
}

int TieredAcquisitionPolicy::ServerlessSlotTarget(SimTime now) const {
  return ComputeSplit(now).serverless_vcpus / config_.serverless_slot_vcpus;
}

std::vector<BidAction> TieredAcquisitionPolicy::Decide(
    SimTime now, const std::vector<LiveAllocation>& live) const {
  const TierSplit split = ComputeSplit(now);
  const int deficit = split.transient_vcpus - LiveSpotVcpus(*catalog_, live);
  if (deficit <= 0) {
    return {};
  }
  MarketKey market;
  Money price = 0.0;
  double effective = 0.0;
  if (!BestSpotMarket(now, &market, &price, &effective)) {
    return {};
  }
  const InstanceType& type = catalog_->Get(market.instance_type);
  const int count = (deficit + type.vcpus - 1) / type.vcpus;
  return {{BidAction::Kind::kAcquire, market, count, price + config_.bid_delta,
           kInvalidAllocation}};
}

}  // namespace proteus
