// Serverless / burstable ultra-transient capacity tier.
//
// The third reliability tier below spot (§7 Discussion direction): cheap
// function-style burstable slots carved out of a shared pool. Three
// properties distinguish it from the spot and preemptible markets:
//
//   1. ZERO eviction warning. There is deliberately no WarningTime()
//      API on this class: a serverless slot is simply gone the instant
//      the provider reclaims it. Consumers must treat every loss as a
//      silent failure caught only by the heartbeat detector — a warned
//      drain of a serverless allocation is a bug by construction.
//   2. Per-slot burstable duration limits. Every allocation is capped at
//      `max_burst`; even an undisturbed slot is reclaimed at
//      start + max_burst (Lambda-style max execution time).
//   3. Correlated mass revocations. Besides gradual capacity pressure
//      (the CapacityTrace dipping below the claimed level), the tier
//      schedules seeded *storm* events at which a large fraction of all
//      running slots vanishes in one instant — the provider rebalancing
//      the pool under higher-priority load. Victim draws are keyed by
//      (seed, allocation id, storm index), so runs are reproducible and
//      independent of request interleaving.
//
// Determinism: the capacity trace, the storm schedule, and every
// allocation's revocation instant are fixed at construction/request time
// from the config seed. Drivers advance simulated time and apply due
// revocations via MarkRevoked, exactly like SpotMarket::MarkEvicted.
#ifndef SRC_MARKET_SERVERLESS_TIER_H_
#define SRC_MARKET_SERVERLESS_TIER_H_

#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/market/capacity_trace.h"
#include "src/market/spot_market.h"  // AllocationState.

namespace proteus {

// Flat internal charge-back rate per slot-hour; far below spot. There
// is no auction — what varies is reliability, not price.
inline constexpr Money kServerlessRatePerSlotHour = 0.012;

struct ServerlessTierConfig {
  // Burstable duration cap per allocation (Lambda-style max lifetime).
  SimDuration max_burst = 45 * kMinute;
  // Background capacity dynamics of the shared pool.
  CapacityTraceConfig capacity;
  SimDuration horizon = 48 * kHour;
  // Correlated mass-revocation storms: Poisson arrivals; at each storm a
  // Bernoulli(victim_fraction) draw per running allocation decides who
  // vanishes — in one instant, with no warning.
  double storms_per_day = 2.0;
  double storm_victim_fraction = 0.6;
  std::uint64_t seed = 42;
};

// A scheduled correlated revocation event.
struct StormEvent {
  SimTime at = 0.0;
  double victim_fraction = 0.0;
};

// Why a precomputed revocation fires (for per-tier accounting/tests).
enum class ServerlessRevocationCause {
  kNone,      // Terminated by the user before any revocation.
  kBurstCap,  // Hit the burstable duration limit.
  kStorm,     // Victim of a correlated storm event.
  kCapacity,  // Pool capacity dipped below the claimed level.
};

const char* ServerlessRevocationCauseName(ServerlessRevocationCause cause);

struct ServerlessAllocation {
  AllocationId id = kInvalidAllocation;
  int count = 0;
  SimTime start = 0.0;
  // Precomputed at request time (always set — the burst cap guarantees
  // an end): min(burst cap, first storm that draws this allocation,
  // first capacity crossing below the claimed level).
  SimTime revocation_time = 0.0;
  ServerlessRevocationCause revocation_cause = ServerlessRevocationCause::kNone;
  // Pool level this allocation claimed at grant (running slots after the
  // grant, LIFO): when available capacity drops below it, this — the
  // newest — allocation is reclaimed first.
  int claimed_level = 0;
  AllocationState state = AllocationState::kRunning;
  SimTime end = 0.0;  // Valid when state != kRunning.

  bool running() const { return state == AllocationState::kRunning; }
};

class ServerlessTier {
 public:
  explicit ServerlessTier(ServerlessTierConfig config);

  // Requests `count` burstable slots at time t. Declines (nullopt) when
  // the pool lacks capacity for the claimed level. On grant, the
  // revocation instant and cause are precomputed deterministically.
  std::optional<AllocationId> Request(int count, SimTime t);

  // User-initiated release. If the precomputed revocation already
  // passed, the provider got there first: recorded as revoked instead.
  void Terminate(AllocationId id, SimTime t);

  // Applies a due revocation (drivers call this once simulated time
  // reaches revocation_time). No warning precedes it — ever.
  void MarkRevoked(AllocationId id);

  const ServerlessAllocation& Get(AllocationId id) const;
  const std::vector<ServerlessAllocation>& allocations() const { return allocations_; }

  // Slots currently running across the tier.
  int RunningCount() const { return running_; }

  // Pool capacity available at time t (before subtracting claims).
  int SlotsAt(SimTime t) const { return capacity_.SlotsAt(t); }

  // Per-second billing at the flat rate; no minimum, no refunds.
  Money Bill(AllocationId id, SimTime as_of) const;
  Money TotalBill(SimTime as_of) const;

  const CapacityTrace& capacity_trace() const { return capacity_; }
  const std::vector<StormEvent>& storms() const { return storms_; }
  const ServerlessTierConfig& config() const { return config_; }

 private:
  // Deterministic Bernoulli victim draw for (allocation, storm) pairs.
  bool StormHits(AllocationId id, std::size_t storm_index) const;

  ServerlessTierConfig config_;
  CapacityTrace capacity_;
  std::vector<StormEvent> storms_;
  std::vector<ServerlessAllocation> allocations_;
  int running_ = 0;
};

}  // namespace proteus

#endif  // SRC_MARKET_SERVERLESS_TIER_H_
