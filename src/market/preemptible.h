// Google Compute Engine preemptible-instance model (§2.2).
//
// Differences from the EC2 spot market, as the paper enumerates:
//   1. fixed price at a 70% discount off on-demand — no price movement
//      and therefore no bidding;
//   2. a 30-second revocation warning instead of 2 minutes (not kept:
//      the GCE baseline reacts to the revocation itself);
//   3. instances live at most 24 hours;
//   4. revocation is at the provider's discretion (we model a Poisson
//      hazard), and — unlike EC2 — there is no refund for the partial
//      period at revocation (GCE billed per minute with a 10-minute
//      minimum, so there is no "free compute" lottery to exploit).
#ifndef SRC_MARKET_PREEMPTIBLE_H_
#define SRC_MARKET_PREEMPTIBLE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/market/instance_type.h"
#include "src/market/spot_market.h"  // AllocationState.

namespace proteus {

struct PreemptibleConfig {
  SimDuration max_lifetime = 24 * kHour;  // Hard cap.
  // Poisson revocation hazard (per instance-hour). GCE historically
  // preempted 5-15% of instances per day under normal load.
  double revocations_per_hour = 0.01;
};

struct PreemptibleAllocation {
  AllocationId id = kInvalidAllocation;
  std::string instance_type;
  int count = 0;
  SimTime start = 0.0;
  // Sampled at request time: when GCE takes the instances back (always
  // set — the 24h cap guarantees an end).
  SimTime revocation_time = 0.0;
  AllocationState state = AllocationState::kRunning;
  SimTime end = 0.0;

  bool running() const { return state == AllocationState::kRunning; }
};

class PreemptibleMarket {
 public:
  PreemptibleMarket(const InstanceTypeCatalog& catalog, PreemptibleConfig config,
                    std::uint64_t seed);

  Money PricePerHour(const std::string& instance_type) const;

  // Preemptible capacity is (modeled as) always available.
  AllocationId Request(const std::string& instance_type, int count, SimTime t);

  void Terminate(AllocationId id, SimTime t);
  void MarkRevoked(AllocationId id);

  const PreemptibleAllocation& Get(AllocationId id) const;
  const std::vector<PreemptibleAllocation>& allocations() const { return allocations_; }

  // Per-minute billing with a 10-minute minimum; no refunds.
  Money Bill(AllocationId id, SimTime as_of) const;
  Money TotalBill(SimTime as_of) const;

  const PreemptibleConfig& config() const { return config_; }

 private:
  const InstanceTypeCatalog& catalog_;
  PreemptibleConfig config_;
  Rng rng_;
  std::vector<PreemptibleAllocation> allocations_;
};

}  // namespace proteus

#endif  // SRC_MARKET_PREEMPTIBLE_H_
