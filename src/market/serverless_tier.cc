#include "src/market/serverless_tier.h"

#include <algorithm>
#include <cmath>

#include "src/common/hash.h"
#include "src/common/logging.h"

namespace proteus {

namespace {

// Per-second billing, no minimum, no refunds: serverless bills for
// exactly what ran.
constexpr SimDuration kBillingGranularity = kSecond;

}  // namespace

const char* ServerlessRevocationCauseName(ServerlessRevocationCause cause) {
  switch (cause) {
    case ServerlessRevocationCause::kNone:
      return "none";
    case ServerlessRevocationCause::kBurstCap:
      return "burst-cap";
    case ServerlessRevocationCause::kStorm:
      return "storm";
    case ServerlessRevocationCause::kCapacity:
      return "capacity";
  }
  return "?";
}

ServerlessTier::ServerlessTier(ServerlessTierConfig config) : config_(config) {
  PROTEUS_CHECK_GT(config_.max_burst, 0.0);
  PROTEUS_CHECK_GE(config_.storm_victim_fraction, 0.0);
  PROTEUS_CHECK_LE(config_.storm_victim_fraction, 1.0);
  Rng rng(config_.seed);
  capacity_ = GenerateCapacityTrace(config_.capacity, config_.horizon, rng);
  // Storm schedule: Poisson arrivals over the horizon; fractions jitter
  // around the configured mean so storms differ in severity.
  if (config_.storms_per_day > 0) {
    const double mean_gap = kDay / config_.storms_per_day;
    SimTime t = rng.ExponentialMean(mean_gap);
    while (t < config_.horizon) {
      const double jitter = rng.Uniform(0.75, 1.25);
      storms_.push_back(
          {t, std::min(1.0, config_.storm_victim_fraction * jitter)});
      t += rng.ExponentialMean(mean_gap);
    }
  }
}

bool ServerlessTier::StormHits(AllocationId id, std::size_t storm_index) const {
  // Keyed by (seed, allocation id, storm index): reproducible and
  // independent of how many other allocations exist or when they were
  // requested.
  Rng draw(HashCombine(config_.seed,
                       HashCombine(static_cast<std::uint64_t>(id),
                                   0xC0FFEEULL + storm_index)));
  return draw.Bernoulli(storms_[storm_index].victim_fraction);
}

std::optional<AllocationId> ServerlessTier::Request(int count, SimTime t) {
  PROTEUS_CHECK_GT(count, 0);
  const int claimed = running_ + count;
  if (claimed > capacity_.SlotsAt(t)) {
    return std::nullopt;  // Pool too squeezed right now.
  }
  ServerlessAllocation alloc;
  alloc.id = static_cast<AllocationId>(allocations_.size());
  alloc.count = count;
  alloc.start = t;
  alloc.claimed_level = claimed;

  // Burst cap: even an undisturbed allocation ends here.
  alloc.revocation_time = t + config_.max_burst;
  alloc.revocation_cause = ServerlessRevocationCause::kBurstCap;

  // First storm (strictly after start) that draws this allocation.
  for (std::size_t k = 0; k < storms_.size(); ++k) {
    if (storms_[k].at <= t) {
      continue;
    }
    if (storms_[k].at >= alloc.revocation_time) {
      break;  // Sorted by time; later storms cannot fire earlier.
    }
    if (StormHits(alloc.id, k)) {
      alloc.revocation_time = storms_[k].at;
      alloc.revocation_cause = ServerlessRevocationCause::kStorm;
      break;
    }
  }

  // Capacity crossing below the claimed level (LIFO: the newest
  // allocation holds the highest claim, so it is squeezed out first).
  const std::optional<SimTime> squeeze =
      capacity_.FirstTimeBelow(claimed, t, config_.horizon);
  if (squeeze.has_value() && *squeeze < alloc.revocation_time) {
    alloc.revocation_time = *squeeze;
    alloc.revocation_cause = ServerlessRevocationCause::kCapacity;
  }

  allocations_.push_back(alloc);
  running_ += count;
  return alloc.id;
}

void ServerlessTier::Terminate(AllocationId id, SimTime t) {
  PROTEUS_CHECK_GE(id, 0);
  PROTEUS_CHECK_LT(static_cast<std::size_t>(id), allocations_.size());
  ServerlessAllocation& alloc = allocations_[static_cast<std::size_t>(id)];
  PROTEUS_CHECK(alloc.running()) << "terminating non-running serverless allocation " << id;
  PROTEUS_CHECK_GE(t, alloc.start);
  running_ -= alloc.count;
  PROTEUS_CHECK_GE(running_, 0);
  if (alloc.revocation_time <= t) {
    // The provider got there first; the caller should have observed the
    // revocation. Record it at the earlier instant.
    alloc.state = AllocationState::kEvicted;
    alloc.end = alloc.revocation_time;
    return;
  }
  alloc.state = AllocationState::kTerminated;
  alloc.end = t;
  alloc.revocation_cause = ServerlessRevocationCause::kNone;
}

void ServerlessTier::MarkRevoked(AllocationId id) {
  PROTEUS_CHECK_GE(id, 0);
  PROTEUS_CHECK_LT(static_cast<std::size_t>(id), allocations_.size());
  ServerlessAllocation& alloc = allocations_[static_cast<std::size_t>(id)];
  PROTEUS_CHECK(alloc.running()) << "revoking non-running serverless allocation " << id;
  running_ -= alloc.count;
  PROTEUS_CHECK_GE(running_, 0);
  alloc.state = AllocationState::kEvicted;
  alloc.end = alloc.revocation_time;
}

const ServerlessAllocation& ServerlessTier::Get(AllocationId id) const {
  PROTEUS_CHECK_GE(id, 0);
  PROTEUS_CHECK_LT(static_cast<std::size_t>(id), allocations_.size());
  return allocations_[static_cast<std::size_t>(id)];
}

Money ServerlessTier::Bill(AllocationId id, SimTime as_of) const {
  const ServerlessAllocation& alloc = Get(id);
  const SimTime effective_end =
      alloc.running() ? as_of : std::min(as_of, alloc.end);
  if (effective_end <= alloc.start) {
    return 0.0;
  }
  // Round the used duration up to the billing granularity; no minimum
  // charge, no refunds — you pay for exactly what ran.
  const SimDuration used = effective_end - alloc.start;
  const double ticks = std::ceil(used / kBillingGranularity);
  const SimDuration billed = ticks * kBillingGranularity;
  return kServerlessRatePerSlotHour * alloc.count * (billed / kHour);
}

Money ServerlessTier::TotalBill(SimTime as_of) const {
  Money total = 0.0;
  for (const auto& alloc : allocations_) {
    total += Bill(alloc.id, as_of);
  }
  return total;
}

}  // namespace proteus
