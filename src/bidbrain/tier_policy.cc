#include "src/bidbrain/tier_policy.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "src/common/logging.h"

namespace proteus {

namespace {

constexpr double kEps = 1e-6;

// Reliable tier: the floor is what the serving tier needs regardless of
// economics.
constexpr double kMinReliableFraction = 0.05;

// Transient tier (spot): bid (current price + delta); beta comes from
// the trained EvictionModel at that delta. Warned drains destroy little
// work.
constexpr Money kBidDelta = 0.02;
constexpr double kTransientLossPenalty = 0.25;

// Ultra-transient tier (serverless): fixed slot pricing, zero warning.
// The penalty is the largest of the three because every loss is silent
// (detector latency + rollback to the last clean backup).
constexpr Money kServerlessPricePerSlotHour = 0.012;
constexpr int kServerlessSlotVcpus = 2;
constexpr double kServerlessLossPenalty = 0.75;
// Cap on the serverless share of target_vcpus; keep this at or below
// the runtime TierGuard's max_worker_fraction or admission will clamp.
constexpr double kMaxServerlessFraction = 0.4;
static_assert(kBidDelta >= 0.0 && kServerlessSlotVcpus > 0);
static_assert(kMaxServerlessFraction >= 0.0 && kMaxServerlessFraction <= 1.0);
static_assert(kMinReliableFraction >= 0.0 && kMinReliableFraction <= 1.0);

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
  PROTEUS_CHECK_GE(config_.serverless_beta, 0.0);
  PROTEUS_CHECK_LE(config_.serverless_beta, 1.0);
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
    const EvictionStats stats = estimator_->Estimate(key, kBidDelta);
    const double eff =
        Effective((p + kBidDelta) / type->vcpus, stats.beta, kTransientLossPenalty);
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
      Effective(kServerlessPricePerSlotHour / kServerlessSlotVcpus, config_.serverless_beta,
                kServerlessLossPenalty);
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
      std::min(target, static_cast<int>(kMinReliableFraction * target + 0.999999));
  int remaining = target - split.reliable_vcpus;
  const int serverless_cap = static_cast<int>(kMaxServerlessFraction * target);
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
  return {{BidAction::Kind::kAcquire, market, count, price + kBidDelta, kInvalidAllocation}};
}

}  // namespace proteus
