#include "src/market/capacity_trace.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/stats.h"

namespace proteus {

namespace {

// Bursty high-priority jobs: exponential durations with this mean,
// sizes uniform up to this fraction of the cluster.
constexpr SimDuration kBurstDurationMean = 45 * kMinute;
constexpr double kBurstSizeMax = 0.5;

}  // namespace

CapacityTrace::CapacityTrace(std::vector<CapacityPoint> points) : points_(std::move(points)) {
  for (std::size_t i = 1; i < points_.size(); ++i) {
    PROTEUS_CHECK_GT(points_[i].time, points_[i - 1].time);
  }
}

std::size_t CapacityTrace::IndexAt(SimTime t) const {
  PROTEUS_CHECK(!points_.empty());
  auto it = std::upper_bound(points_.begin(), points_.end(), t,
                             [](SimTime value, const CapacityPoint& p) { return value < p.time; });
  if (it == points_.begin()) {
    return 0;
  }
  return static_cast<std::size_t>(std::distance(points_.begin(), it)) - 1;
}

int CapacityTrace::SlotsAt(SimTime t) const { return points_[IndexAt(t)].slots; }

int CapacityTrace::MinSlots(SimTime from, SimTime to) const {
  int best = SlotsAt(from);
  for (std::size_t i = IndexAt(from) + 1; i < points_.size() && points_[i].time <= to; ++i) {
    best = std::min(best, points_[i].slots);
  }
  return best;
}

std::optional<SimTime> CapacityTrace::FirstTimeBelow(int needed, SimTime from,
                                                     SimTime horizon) const {
  if (SlotsAt(from) < needed) {
    return from;
  }
  for (std::size_t i = IndexAt(from) + 1; i < points_.size() && points_[i].time <= horizon; ++i) {
    if (points_[i].slots < needed) {
      return points_[i].time;
    }
  }
  return std::nullopt;
}

SimTime CapacityTrace::end_time() const {
  PROTEUS_CHECK(!points_.empty());
  return points_.back().time;
}

CapacityTrace GenerateCapacityTrace(const CapacityTraceConfig& config, SimDuration duration,
                                    Rng& rng) {
  PROTEUS_CHECK_GT(duration, 0.0);
  struct Burst {
    SimTime start;
    SimTime end;
    double size;  // Fraction of the cluster.
  };
  std::vector<Burst> bursts;
  const double rate = config.bursts_per_day / kDay;
  SimTime t = 0.0;
  while (rate > 0.0) {
    t += rng.ExponentialMean(1.0 / rate);
    if (t >= duration) {
      break;
    }
    bursts.push_back({t, t + rng.ExponentialMean(kBurstDurationMean),
                      rng.Uniform(0.05, kBurstSizeMax)});
  }

  std::vector<CapacityPoint> points;
  int last = -1;
  for (SimTime now = 0.0; now < duration; now += config.step) {
    // Diurnal business load peaking mid-day.
    const double day_phase = 2.0 * M_PI * (now / kDay);
    double load = config.base_load + config.diurnal_amplitude * 0.5 * (1.0 - std::cos(day_phase));
    for (const Burst& burst : bursts) {
      if (now >= burst.start && now < burst.end) {
        load += burst.size;
      }
    }
    const int slots = std::clamp(
        static_cast<int>(std::lround(config.total_slots * (1.0 - load))), 0,
        config.total_slots);
    if (slots != last) {
      points.push_back({now, slots});
      last = slots;
    }
  }
  if (points.empty()) {
    points.push_back({0.0, config.total_slots});
  }
  return CapacityTrace(std::move(points));
}

void CapacityEvictionModel::Train(const CapacityTrace& trace, SimTime begin, SimTime end,
                                  int allocation_slots, SimDuration sample_step) {
  PROTEUS_CHECK_GT(end, begin);
  PROTEUS_CHECK_GT(allocation_slots, 0);
  int samples = 0;
  int evicted = 0;
  SampleStats times;
  for (SimTime t = begin; t + kHour <= end; t += sample_step) {
    const int available = trace.SlotsAt(t);
    if (available < allocation_slots) {
      continue;  // Allocation would not have been granted.
    }
    // Revoked when capacity falls below what we hold.
    const auto crossing = trace.FirstTimeBelow(allocation_slots, t, t + kHour);
    ++samples;
    if (crossing.has_value()) {
      ++evicted;
      times.Add(*crossing - t);
    }
  }
  stats_.samples = samples;
  stats_.beta = samples > 0 ? static_cast<double>(evicted) / samples : 1.0;
  stats_.median_time_to_eviction = times.empty() ? kHour : times.Median();
}

EvictionStats CapacityEvictionModel::Estimate(const MarketKey& market, Money bid_delta) const {
  (void)market;     // One pool: all "markets" share the cluster's slack.
  (void)bid_delta;  // No auction in a fixed-price cluster.
  return stats_;
}

TraceStore MakePrivateClusterPriceStore(const InstanceTypeCatalog& catalog,
                                        const std::string& zone, Money rate_per_vcpu_hour,
                                        SimDuration horizon) {
  TraceStore store;
  for (const auto& type : catalog.types()) {
    PriceSeries series;
    series.Append(0.0, rate_per_vcpu_hour * type.vcpus);
    // A second point pins the horizon so end_time() is meaningful.
    series.Append(horizon, rate_per_vcpu_hour * type.vcpus);
    store.Put({zone, type.name}, series);
  }
  return store;
}

}  // namespace proteus
