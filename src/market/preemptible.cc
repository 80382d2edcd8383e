#include "src/market/preemptible.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace proteus {

namespace {

constexpr double kDiscount = 0.70;  // Off the on-demand price.
static_assert(kDiscount > 0.0 && kDiscount < 1.0);
// Billing granularity and minimum charge.
constexpr SimDuration kBillingGranularity = kMinute;
constexpr SimDuration kMinimumCharge = 10 * kMinute;

}  // namespace

PreemptibleMarket::PreemptibleMarket(const InstanceTypeCatalog& catalog,
                                     PreemptibleConfig config, std::uint64_t seed)
    : catalog_(catalog), config_(config), rng_(seed) {}

Money PreemptibleMarket::PricePerHour(const std::string& instance_type) const {
  return catalog_.Get(instance_type).on_demand_price * (1.0 - kDiscount);
}

AllocationId PreemptibleMarket::Request(const std::string& instance_type, int count, SimTime t) {
  PROTEUS_CHECK_GT(count, 0);
  catalog_.Get(instance_type);  // Validate.
  PreemptibleAllocation alloc;
  alloc.id = static_cast<AllocationId>(allocations_.size());
  alloc.instance_type = instance_type;
  alloc.count = count;
  alloc.start = t;
  // Revocation: min(Poisson hazard draw, 24-hour cap). All instances in
  // the allocation share fate (they back one gang-scheduled job).
  const double hazard_mean_hours = 1.0 / std::max(config_.revocations_per_hour, 1e-9);
  const SimDuration hazard = rng_.ExponentialMean(hazard_mean_hours * kHour);
  alloc.revocation_time = t + std::min(hazard, config_.max_lifetime);
  allocations_.push_back(alloc);
  return alloc.id;
}

void PreemptibleMarket::Terminate(AllocationId id, SimTime t) {
  PROTEUS_CHECK_GE(id, 0);
  PROTEUS_CHECK_LT(static_cast<std::size_t>(id), allocations_.size());
  PreemptibleAllocation& alloc = allocations_[static_cast<std::size_t>(id)];
  PROTEUS_CHECK(alloc.running());
  if (alloc.revocation_time <= t) {
    alloc.state = AllocationState::kEvicted;
    alloc.end = alloc.revocation_time;
    return;
  }
  alloc.state = AllocationState::kTerminated;
  alloc.end = t;
}

void PreemptibleMarket::MarkRevoked(AllocationId id) {
  PROTEUS_CHECK_GE(id, 0);
  PROTEUS_CHECK_LT(static_cast<std::size_t>(id), allocations_.size());
  PreemptibleAllocation& alloc = allocations_[static_cast<std::size_t>(id)];
  PROTEUS_CHECK(alloc.running());
  alloc.state = AllocationState::kEvicted;
  alloc.end = alloc.revocation_time;
}

const PreemptibleAllocation& PreemptibleMarket::Get(AllocationId id) const {
  PROTEUS_CHECK_GE(id, 0);
  PROTEUS_CHECK_LT(static_cast<std::size_t>(id), allocations_.size());
  return allocations_[static_cast<std::size_t>(id)];
}

Money PreemptibleMarket::Bill(AllocationId id, SimTime as_of) const {
  const PreemptibleAllocation& alloc = Get(id);
  SimTime end = alloc.running() ? as_of : std::min(alloc.end, as_of);
  if (end <= alloc.start) {
    return 0.0;
  }
  SimDuration used = end - alloc.start;
  used = std::max(used, kMinimumCharge);
  // Round up to the billing granularity.
  used = std::ceil(used / kBillingGranularity) * kBillingGranularity;
  return PricePerHour(alloc.instance_type) * alloc.count * (used / kHour);
}

Money PreemptibleMarket::TotalBill(SimTime as_of) const {
  Money total = 0.0;
  for (const auto& alloc : allocations_) {
    total += Bill(alloc.id, as_of);
  }
  return total;
}

}  // namespace proteus
