#include "src/market/trace_gen.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/logging.h"

namespace proteus {

PriceSeries GenerateSyntheticTrace(const InstanceType& type, SimDuration duration,
                                   const SyntheticTraceConfig& config, Rng& rng) {
  PROTEUS_CHECK_GT(duration, 0.0);
  PROTEUS_CHECK_GT(config.step, 0.0);
  const Money od = type.on_demand_price;
  const double log_base = std::log(od * kTraceBaseFraction);
  const Money floor = od * kTraceFloorFraction;

  // Pre-draw spike intervals: (start, end, peak multiple).
  struct Spike {
    SimTime start;
    SimTime end;
    Money peak;
  };
  std::vector<Spike> spikes;
  const double spike_rate = config.spikes_per_day / kDay;  // Per second.
  SimTime t = 0.0;
  while (spike_rate > 0.0) {
    t += rng.ExponentialMean(1.0 / spike_rate);
    if (t >= duration) {
      break;
    }
    const double log_min = std::log(kSpikeMultipleMin);
    const double log_max = std::log(kSpikeMultipleMax);
    const double multiple = std::exp(rng.Uniform(log_min, log_max));
    const SimDuration len = std::max(config.step, rng.ExponentialMean(config.spike_duration_mean));
    spikes.push_back({t, t + len, od * multiple});
  }

  PriceSeries series;
  double log_price = log_base;
  Money last_emitted = -1.0;
  // Spikes are drawn in start order and `now` only grows, so the spikes
  // that have started and may still be live form a window [live, started)
  // of the list: spikes before it have ended for good.
  std::size_t live = 0;
  std::size_t started = 0;
  for (SimTime now = 0.0; now < duration; now += config.step) {
    // Quiet-regime OU step.
    log_price += kTraceReversion * (log_base - log_price) + rng.Normal(0.0, kTraceVolatility);
    Money price = std::exp(log_price);
    while (started < spikes.size() && spikes[started].start <= now) {
      ++started;
    }
    while (live < started && spikes[live].end <= now) {
      ++live;
    }
    // Spike overlay: inside a spike window the price is at least the
    // spike's peak, so crossings happen at window edges. The first live
    // spike in draw order sets the peak.
    for (std::size_t i = live; i < started; ++i) {
      if (now < spikes[i].end) {
        price = std::max(price, spikes[i].peak);
        break;
      }
    }
    price = std::max(price, floor);
    // Round to tenth-of-a-cent like AWS price feeds.
    price = std::round(price * 1000.0) / 1000.0;
    if (price != last_emitted) {
      series.Append(now, price);
      last_emitted = price;
    }
  }
  if (series.empty()) {
    series.Append(0.0, std::max(floor, std::exp(log_base)));
  }
  return series;
}

}  // namespace proteus
