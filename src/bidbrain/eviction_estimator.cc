#include "src/bidbrain/eviction_estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"
#include "src/common/stats.h"

namespace proteus {

namespace {

// Fallback when a market has no usable history: assume worst-case
// volatility at tiny deltas, tapering with the delta (pessimistic
// prior). Silently returning beta = 0 here would make an unmeasured
// market look perfectly reliable and pull every bid toward it.
EvictionStats PessimisticPrior(Money bid_delta) {
  EvictionStats prior;
  prior.beta = std::clamp(0.05 / std::max(bid_delta, 0.001), 0.0, 0.9);
  prior.median_time_to_eviction = kHour / 2;
  return prior;
}

}  // namespace

std::vector<Money> EvictionEstimator::DefaultDeltaGrid() {
  return {0.0001, 0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4};
}

void EvictionEstimator::Train(const TraceStore& history, SimTime train_begin, SimTime train_end,
                              SimDuration sample_step, std::vector<Money> delta_grid) {
  PROTEUS_CHECK_GT(train_end, train_begin);
  PROTEUS_CHECK_GT(sample_step, 0.0);
  PROTEUS_CHECK(!delta_grid.empty());
  delta_grid_ = std::move(delta_grid);
  std::sort(delta_grid_.begin(), delta_grid_.end());
  stats_.clear();

  const std::size_t num_deltas = delta_grid_.size();
  for (const MarketKey& key : history.Keys()) {
    const std::vector<PricePoint>& points = history.Get(key).points();
    if (points.empty()) {
      // No price points at all: leave the market out of stats_ so
      // Estimate serves the pessimistic prior instead of replaying an
      // empty history.
      continue;
    }
    std::vector<int> evicted(num_deltas, 0);
    std::vector<SampleStats> times(num_deltas);
    int samples = 0;
    // Last point at or before t, or 0 while t precedes the first point
    // (PriceSeries::IndexAt); t only grows, so the cursor only advances.
    std::size_t at = 0;
    for (SimTime t = train_begin; t + kHour <= train_end; t += sample_step) {
      while (at + 1 < points.size() && points[at + 1].time <= t) {
        ++at;
      }
      const Money price = points[at].price;
      const SimTime horizon = t + kHour;
      ++samples;
      // Bids (price + delta) grow with the sorted delta, so first
      // crossings come in delta order: resolve delta d at the first
      // point whose price exceeds its bid, then move on to d + 1 there.
      auto evict = [&](std::size_t d, SimTime crossing) {
        ++evicted[d];
        times[d].Add(crossing - t);
      };
      std::size_t d = 0;
      // A bid below the current price is crossed at t itself.
      while (d < num_deltas && price > price + delta_grid_[d]) {
        evict(d++, t);
      }
      for (std::size_t i = at + 1;
           d < num_deltas && i < points.size() && points[i].time <= horizon; ++i) {
        while (d < num_deltas && points[i].price > price + delta_grid_[d]) {
          evict(d++, points[i].time);
        }
      }
    }
    std::vector<EvictionStats> per_delta(num_deltas);
    for (std::size_t d = 0; d < num_deltas; ++d) {
      per_delta[d].samples = samples;
      per_delta[d].beta = samples > 0 ? static_cast<double>(evicted[d]) / samples : 0.0;
      per_delta[d].median_time_to_eviction = times[d].empty() ? kHour : times[d].Median();
    }
    stats_[key] = std::move(per_delta);
  }
}

const std::vector<EvictionStats>* EvictionEstimator::TrainedStats(const MarketKey& market) const {
  auto it = stats_.find(market);
  return it == stats_.end() ? nullptr : &it->second;
}

EvictionStats EvictionEstimator::Estimate(const MarketKey& market, Money bid_delta) const {
  auto it = stats_.find(market);
  if (it == stats_.end()) {
    return PessimisticPrior(bid_delta);
  }
  // Closest grid point by |delta| distance in log space (grid is
  // geometric-ish).
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < delta_grid_.size(); ++i) {
    const double dist = std::fabs(std::log(std::max(bid_delta, 1e-6)) -
                                  std::log(std::max(delta_grid_[i], 1e-6)));
    if (dist < best_dist) {
      best_dist = dist;
      best = i;
    }
  }
  const EvictionStats& stats = it->second[best];
  if (stats.samples == 0) {
    // The training window was too short to complete a single billing
    // hour, so beta was never measured. The stored 0.0 would read as
    // "never evicted" — the most optimistic possible claim from the
    // least possible evidence — so serve the prior instead.
    return PessimisticPrior(bid_delta);
  }
  return stats;
}

}  // namespace proteus
