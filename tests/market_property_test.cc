// Property tests over randomized spot traces: billing invariants that
// must hold for every allocation regardless of market behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/rng.h"
#include "src/market/spot_market.h"
#include "src/market/trace_gen.h"
#include "src/proteus/accounting.h"

namespace proteus {
namespace {

class MarketPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  MarketPropertyTest() : catalog_(InstanceTypeCatalog::Default()) {
    SyntheticTraceConfig config;
    config.spikes_per_day = 6.0;
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
    traces_ = TraceStore::GenerateSynthetic(catalog_, {"z0"}, 20 * kDay, config, rng);
    market_ = std::make_unique<SpotMarket>(catalog_, traces_);
  }

  InstanceTypeCatalog catalog_;
  TraceStore traces_;
  std::unique_ptr<SpotMarket> market_;
};

TEST_P(MarketPropertyTest, BillingInvariantsUnderRandomAllocations) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337);
  const MarketKey key{"z0", "c4.xlarge"};
  const PriceSeries& series = traces_.Get(key);

  for (int trial = 0; trial < 40; ++trial) {
    const SimTime t0 = rng.Uniform(0.0, 15 * kDay);
    const Money price = series.PriceAt(t0);
    const Money bid = price + rng.Uniform(0.0, 0.3);
    const int count = static_cast<int>(rng.UniformInt(1, 8));
    const auto id = market_->RequestSpot(key, count, bid, t0);
    ASSERT_TRUE(id.has_value()) << "bid >= price must be granted";
    const Allocation& alloc = market_->Get(*id);

    // Eviction, if predicted, is strictly after the grant and is exactly
    // a bid crossing.
    if (alloc.eviction_time.has_value()) {
      ASSERT_GT(*alloc.eviction_time, t0);
      ASSERT_GT(series.PriceAt(*alloc.eviction_time), bid);
      // Warning precedes eviction by at most two minutes.
      const auto warning = market_->WarningTime(*id);
      ASSERT_TRUE(warning.has_value());
      ASSERT_LE(*warning, *alloc.eviction_time);
      ASSERT_GE(*warning, *alloc.eviction_time - kEvictionWarning);
    }

    // Bill monotonicity in as_of, and refund only when evicted.
    SimTime end;
    if (alloc.eviction_time.has_value() && rng.Bernoulli(0.5)) {
      market_->MarkEvicted(*id);
      end = *alloc.eviction_time;
    } else {
      end = t0 + rng.Uniform(0.1 * kHour, 5 * kHour);
      market_->Terminate(*id, end);
      end = market_->Get(*id).end;  // Terminate may resolve to eviction.
    }
    const BillingBreakdown early = market_->Bill(*id, t0 + 0.5 * kHour);
    const BillingBreakdown late = market_->Bill(*id, end + 10 * kHour);
    ASSERT_GE(late.charged + late.refunded, early.charged + early.refunded);
    ASSERT_GE(late.charged, 0.0);
    if (market_->Get(*id).state == AllocationState::kTerminated) {
      ASSERT_DOUBLE_EQ(late.refunded, 0.0);
      ASSERT_DOUBLE_EQ(late.free_hours, 0.0);
    } else {
      // Evicted: exactly the in-progress hour refunded.
      ASSERT_GT(late.free_hours, 0.0);
      ASSERT_LE(late.free_hours, static_cast<double>(count));
    }

    // Job-level accounting never exceeds the market's gross charge and
    // machine-hours are bounded by wall time x count.
    const JobBill job_bill = ComputeJobBill(*market_, *id, end + kHour);
    ASSERT_LE(job_bill.cost, late.charged + 1e-9);
    ASSERT_LE(job_bill.TotalHours(), (end - t0) / kHour * count + 1e-9);
  }
}

TEST_P(MarketPropertyTest, NeverGrantedBelowMarket) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7);
  const MarketKey key{"z0", "c4.2xlarge"};
  const PriceSeries& series = traces_.Get(key);
  for (int trial = 0; trial < 40; ++trial) {
    const SimTime t0 = rng.Uniform(0.0, 15 * kDay);
    const Money price = series.PriceAt(t0);
    if (price <= 0.002) {
      continue;
    }
    EXPECT_FALSE(market_->RequestSpot(key, 1, price - 0.001, t0).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarketPropertyTest, ::testing::Range(1, 7));

// Oracle: the trace generator with the spike overlay done as a full scan
// of every drawn spike at every step (first live spike in draw order
// wins). GenerateSyntheticTrace keeps a window of live spikes instead
// and must emit the same points and leave the RNG in the same state.
PriceSeries FullScanTrace(const InstanceType& type, SimDuration duration,
                          const SyntheticTraceConfig& config, Rng& rng) {
  const Money od = type.on_demand_price;
  const double log_base = std::log(od * kTraceBaseFraction);
  const Money floor = od * kTraceFloorFraction;
  struct Spike {
    SimTime start;
    SimTime end;
    Money peak;
  };
  std::vector<Spike> spikes;
  const double spike_rate = config.spikes_per_day / kDay;
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
  for (SimTime now = 0.0; now < duration; now += config.step) {
    log_price += kTraceReversion * (log_base - log_price) + rng.Normal(0.0, kTraceVolatility);
    Money price = std::exp(log_price);
    for (const Spike& spike : spikes) {
      if (now >= spike.start && now < spike.end) {
        price = std::max(price, spike.peak);
        break;
      }
    }
    price = std::max(price, floor);
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

TEST(SyntheticTraceOracle, SpikeWindowMatchesFullScan) {
  const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
  for (const double spikes_per_day : {0.0, 3.0, 48.0}) {
    // The default short spikes, and spikes long enough to overlap.
    for (const SimDuration mean : {20 * kMinute, 6 * kHour}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SyntheticTraceConfig config;
        config.spikes_per_day = spikes_per_day;
        config.spike_duration_mean = mean;
        const InstanceType& type = catalog.Get(seed % 2 == 0 ? "c4.xlarge" : "m4.2xlarge");
        Rng rng(seed);
        Rng oracle_rng(seed);
        const PriceSeries got = GenerateSyntheticTrace(type, 10 * kDay, config, rng);
        const PriceSeries want = FullScanTrace(type, 10 * kDay, config, oracle_rng);
        ASSERT_EQ(got.size(), want.size()) << spikes_per_day << " " << mean << " " << seed;
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got.points()[i].time, want.points()[i].time) << "point " << i;
          ASSERT_EQ(got.points()[i].price, want.points()[i].price) << "point " << i;
        }
        EXPECT_EQ(rng.Uniform(), oracle_rng.Uniform());
      }
    }
  }
}

}  // namespace
}  // namespace proteus
