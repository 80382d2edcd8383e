// Private best-effort cluster model (§7 Discussion).
//
// In a corporate mixed-function cluster, best-effort allocations run on
// slack capacity and are revoked when business-critical (higher
// priority) load returns. There is no auction: the "price" is a constant
// internal charge-back rate. What still varies is *reliability*: the
// expected time to revocation depends on how much slack exists and how
// it fluctuates. The paper notes BidBrain "may perform reliability
// calculations by observing available resource capacity, its dynamics
// over time, and the activity of higher-priority jobs" — this module
// implements exactly that:
//   - CapacityTrace: best-effort slot availability over time, generated
//     from a diurnal baseline plus bursty high-priority jobs;
//   - CapacityEvictionModel: an EvictionModel that estimates, for an
//     allocation of k slots, the probability that available capacity
//     dips below the currently-claimed level within an hour.
#ifndef SRC_MARKET_CAPACITY_TRACE_H_
#define SRC_MARKET_CAPACITY_TRACE_H_

#include <map>
#include <vector>

#include "src/bidbrain/eviction_estimator.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/market/trace_store.h"

namespace proteus {

// Step function: available best-effort slots over time.
struct CapacityPoint {
  SimTime time;
  int slots;
};

class CapacityTrace {
 public:
  CapacityTrace() = default;
  explicit CapacityTrace(std::vector<CapacityPoint> points);

  int SlotsAt(SimTime t) const;
  // Minimum capacity over [from, to].
  int MinSlots(SimTime from, SimTime to) const;
  // Earliest time in [from, horizon] at which capacity drops below
  // `needed`; nullopt if it never does.
  std::optional<SimTime> FirstTimeBelow(int needed, SimTime from, SimTime horizon) const;

  bool empty() const { return points_.empty(); }
  SimTime end_time() const;
  const std::vector<CapacityPoint>& points() const { return points_; }

 private:
  std::size_t IndexAt(SimTime t) const;
  std::vector<CapacityPoint> points_;
};

struct CapacityTraceConfig {
  int total_slots = 256;
  // Steady business-critical load as a fraction of the cluster, plus a
  // diurnal swing (daytime peaks squeeze best-effort capacity).
  double base_load = 0.4;
  double diurnal_amplitude = 0.25;
  // Bursty high-priority jobs: Poisson arrivals, exponential durations,
  // uniform sizes.
  double bursts_per_day = 4.0;
  SimDuration step = 5 * kMinute;
};

CapacityTrace GenerateCapacityTrace(const CapacityTraceConfig& config, SimDuration duration,
                                    Rng& rng);

// EvictionModel over capacity dynamics. Bid deltas are meaningless in a
// fixed-price cluster and are ignored; `allocation_slots` captures how
// much headroom an allocation of typical size needs.
class CapacityEvictionModel : public EvictionModel {
 public:
  CapacityEvictionModel() = default;

  // Replays [begin, end) of the trace: at each sample instant, a
  // hypothetical allocation of `allocation_slots` on top of the used
  // slack is revoked when capacity falls below what is already claimed.
  void Train(const CapacityTrace& trace, SimTime begin, SimTime end, int allocation_slots,
             SimDuration sample_step = 10 * kMinute);

  bool trained() const { return stats_.samples > 0; }

  EvictionStats Estimate(const MarketKey& market, Money bid_delta) const override;

 private:
  EvictionStats stats_;
};

// Builds a constant-price TraceStore for a private cluster: every
// "market" (one per slot-type) is priced at `rate` forever. BidBrain
// consumes it unchanged.
TraceStore MakePrivateClusterPriceStore(const InstanceTypeCatalog& catalog,
                                        const std::string& zone, Money rate_per_vcpu_hour,
                                        SimDuration horizon);

}  // namespace proteus

#endif  // SRC_MARKET_CAPACITY_TRACE_H_
