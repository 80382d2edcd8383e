#include "src/cluster/tenant.h"

#include <algorithm>
#include <cmath>

#include "src/common/hash.h"
#include "src/common/logging.h"

namespace proteus {
namespace cluster {

namespace {

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace

const char* DemandStrategyName(DemandStrategy strategy) {
  switch (strategy) {
    case DemandStrategy::kTruthful:
      return "truthful";
    case DemandStrategy::kInflate:
      return "inflate";
    case DemandStrategy::kAlwaysMax:
      return "always_max";
    case DemandStrategy::kBidBrain:
      return "bidbrain";
  }
  return "?";
}

std::unique_ptr<DemandReporter> MakeDemandReporter(const TenantSpec& spec,
                                                   const AcquisitionPolicy* policy,
                                                   const MarketKey& slot_market, Money slot_bid) {
  switch (spec.strategy) {
    case DemandStrategy::kTruthful:
      return std::make_unique<TruthfulDemandReporter>();
    case DemandStrategy::kInflate:
      return std::make_unique<InflateDemandReporter>(spec.inflate_factor);
    case DemandStrategy::kAlwaysMax:
      return std::make_unique<MaxDemandReporter>(spec.inflate_factor);
    case DemandStrategy::kBidBrain:
      PROTEUS_CHECK(policy != nullptr) << "kBidBrain tenant " << spec.name << " needs a policy";
      return std::make_unique<PolicyDemandReporter>(policy, slot_market, slot_bid);
  }
  PROTEUS_CHECK(false) << "unreachable";
  return nullptr;
}

int TrueNeedSlots(const TenantSpec& spec, double remaining_slot_hours, SimDuration round,
                  double phi, bool active) {
  if (remaining_slot_hours <= 0.0) {
    return 0;
  }
  if (!active) {
    return std::min(spec.idle_slots, spec.max_slots);
  }
  const double round_hours = round / kHour;
  const double per_slot = round_hours * std::max(phi, 1e-9);
  const int need = static_cast<int>(std::ceil(remaining_slot_hours / per_slot - 1e-9));
  return std::clamp(need, 0, spec.max_slots);
}

std::uint64_t TenantStreamSeed(std::uint64_t fleet_seed, const TenantSpec& spec) {
  std::uint64_t h = kFnvOffsetBasis;
  h = Fnv1a(h, &fleet_seed, sizeof(fleet_seed));
  if (spec.demand_seed != 0) {
    h = Fnv1a(h, &spec.demand_seed, sizeof(spec.demand_seed));
  } else {
    h = Fnv1a(h, spec.name.data(), spec.name.size());
  }
  return SplitMix(h);
}

}  // namespace cluster
}  // namespace proteus
