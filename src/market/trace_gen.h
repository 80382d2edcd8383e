// Synthetic spot-price trace generator.
//
// Substitution note (see DESIGN.md §2): the paper evaluates over recorded
// AWS US-EAST-1 traces (Mar-Aug 2016). We generate price processes with
// the same qualitative structure observed in those traces and in Fig. 3:
// long quiet periods near ~20-30% of the on-demand price with small
// fluctuations, punctuated by sharp demand spikes that exceed the
// on-demand price (often by several multiples) and decay within minutes
// to an hour or two. BidBrain consumes only (time, price) pairs, so its
// machinery is exercised identically.
#ifndef SRC_MARKET_TRACE_GEN_H_
#define SRC_MARKET_TRACE_GEN_H_

#include <cstdint>

#include "src/common/rng.h"
#include "src/market/instance_type.h"
#include "src/market/price_series.h"

namespace proteus {

// Quiet-regime level, as a fraction of the on-demand price.
inline constexpr double kTraceBaseFraction = 0.25;
// Mean-reversion strength of the quiet-regime log price per step.
inline constexpr double kTraceReversion = 0.05;
// Per-step volatility of the quiet-regime log price.
inline constexpr double kTraceVolatility = 0.02;
// Spike peak as a multiple of the on-demand price: log-uniform in
// [min, max]. AWS capped bids at 10x on-demand.
inline constexpr double kSpikeMultipleMin = 1.05;
inline constexpr double kSpikeMultipleMax = 8.0;
// Hard floor as a fraction of on-demand (AWS never reaches zero).
inline constexpr double kTraceFloorFraction = 0.1;

struct SyntheticTraceConfig {
  // Price spikes: Poisson arrivals per day.
  double spikes_per_day = 3.0;
  // Spike duration, exponential with this mean (seconds).
  SimDuration spike_duration_mean = 20 * kMinute;
  // Sampling step of the process (seconds).
  SimDuration step = 5 * kMinute;
};

// Generates a trace of the given duration for one instance type.
PriceSeries GenerateSyntheticTrace(const InstanceType& type, SimDuration duration,
                                   const SyntheticTraceConfig& config, Rng& rng);

}  // namespace proteus

#endif  // SRC_MARKET_TRACE_GEN_H_
