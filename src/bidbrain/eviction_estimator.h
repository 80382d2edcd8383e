// Empirical eviction-probability estimation from historical spot prices
// (§4.1 "Estimating Evictions").
//
// For every (zone, instance type) market and a grid of bid deltas, the
// estimator replays the training window of the trace: at regular sample
// instants it pretends to bid (current price + delta) and records whether
// the price exceeded the bid within the billing hour and, if so, when.
// This yields beta (probability of eviction within the hour) and the
// median time-to-eviction per (market, delta) — the paper trains on
// March-June 2016 and evaluates on a disjoint later window.
//
// The replay is one forward pass per market. A cursor that only advances
// tracks the price in effect at each sample instant, and one scan of the
// hour after it resolves every delta at once: the sorted grid makes the
// bids non-decreasing, so each delta's first crossing is no earlier than
// the previous delta's. The result equals bidding each delta separately
// through PriceSeries::PriceAt and FirstTimeAbove, bit for bit
// (tests/eviction_estimator_test.cc keeps that form as an oracle).
#ifndef SRC_BIDBRAIN_EVICTION_ESTIMATOR_H_
#define SRC_BIDBRAIN_EVICTION_ESTIMATOR_H_

#include <map>
#include <vector>

#include "src/common/types.h"
#include "src/market/trace_store.h"

namespace proteus {

struct EvictionStats {
  double beta = 0.0;                           // P(evicted within the hour).
  SimDuration median_time_to_eviction = kHour; // Among evicted samples.
  int samples = 0;
};

// Interface through which BidBrain queries resource-reliability
// estimates. The AWS-trained EvictionEstimator is the paper's main
// instance; §7 notes the policies "could be retargeted ... beyond the
// AWS spot market" by swapping this estimate — see
// CapacityEvictionModel (src/market/capacity_trace.h) for the private
// best-effort-cluster instance.
class EvictionModel {
 public:
  virtual ~EvictionModel() = default;
  virtual EvictionStats Estimate(const MarketKey& market, Money bid_delta) const = 0;
};

class EvictionEstimator : public EvictionModel {
 public:
  // Default delta grid spans the paper's considered range
  // [$0.0001, $0.4] over the market price.
  static std::vector<Money> DefaultDeltaGrid();

  EvictionEstimator() = default;

  // Replays [train_begin, train_end) of every market in the store at
  // `sample_step` granularity.
  void Train(const TraceStore& history, SimTime train_begin, SimTime train_end,
             SimDuration sample_step = 10 * kMinute,
             std::vector<Money> delta_grid = DefaultDeltaGrid());

  bool trained() const { return !stats_.empty(); }

  // Stats for an arbitrary delta: returns the trained grid point with the
  // closest delta (conservative step-wise lookup). Markets with no usable
  // history — never trained, an empty price series, or a training window
  // too short to complete one billing hour — get a pessimistic prior
  // rather than a silently optimistic beta of zero.
  EvictionStats Estimate(const MarketKey& market, Money bid_delta) const override;

  const std::vector<Money>& delta_grid() const { return delta_grid_; }

  // The trained stats of `market`, one per grid delta (samples == 0 when
  // the window held no complete billing hour), or nullptr when the
  // market was not trained.
  const std::vector<EvictionStats>* TrainedStats(const MarketKey& market) const;

 private:
  std::vector<Money> delta_grid_;
  // (market, delta index) -> stats.
  std::map<MarketKey, std::vector<EvictionStats>> stats_;
};

}  // namespace proteus

#endif  // SRC_BIDBRAIN_EVICTION_ESTIMATOR_H_
