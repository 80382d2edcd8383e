#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "src/bidbrain/eviction_estimator.h"
#include "src/common/stats.h"
#include "src/market/trace_gen.h"

namespace proteus {
namespace {

class EvictionEstimatorTest : public ::testing::Test {
 protected:
  EvictionEstimatorTest() {
    const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
    SyntheticTraceConfig config;
    config.spikes_per_day = 8.0;  // Frequent spikes -> measurable betas.
    Rng rng(21);
    traces_ = TraceStore::GenerateSynthetic(catalog, {"z0"}, 30 * kDay, config, rng);
    estimator_.Train(traces_, 0.0, 30 * kDay);
  }

  TraceStore traces_;
  EvictionEstimator estimator_;
  const MarketKey key_{"z0", "c4.xlarge"};
};

TEST_F(EvictionEstimatorTest, TrainedFlagSet) { EXPECT_TRUE(estimator_.trained()); }

TEST_F(EvictionEstimatorTest, BetaIsAProbability) {
  for (const Money delta : EvictionEstimator::DefaultDeltaGrid()) {
    const EvictionStats stats = estimator_.Estimate(key_, delta);
    EXPECT_GE(stats.beta, 0.0);
    EXPECT_LE(stats.beta, 1.0);
    EXPECT_GT(stats.samples, 100);
  }
}

TEST_F(EvictionEstimatorTest, BetaWeaklyDecreasesWithDelta) {
  // Bidding further above the market must not increase eviction risk.
  const EvictionStats tiny = estimator_.Estimate(key_, 0.0001);
  const EvictionStats large = estimator_.Estimate(key_, 0.4);
  EXPECT_GE(tiny.beta, large.beta);
}

TEST_F(EvictionEstimatorTest, MedianTimeToEvictionWithinHour) {
  const EvictionStats stats = estimator_.Estimate(key_, 0.001);
  EXPECT_GT(stats.median_time_to_eviction, 0.0);
  EXPECT_LE(stats.median_time_to_eviction, kHour);
}

TEST_F(EvictionEstimatorTest, UnknownMarketGetsPessimisticPrior) {
  const EvictionStats stats = estimator_.Estimate({"nowhere", "c4.xlarge"}, 0.001);
  EXPECT_GT(stats.beta, 0.0);
  EXPECT_EQ(stats.samples, 0);
}

TEST_F(EvictionEstimatorTest, ShortTrainingWindowIsNotSilentlyOptimistic) {
  // A training window shorter than one billing hour completes zero
  // samples for every grid point. The regression here: Estimate used to
  // report the stored beta = 0 ("never evicted") for such markets,
  // which is the most optimistic claim from the least evidence; it must
  // fall back to the pessimistic prior instead.
  EvictionEstimator est;
  est.Train(traces_, 0.0, 30 * kMinute);
  EXPECT_TRUE(est.trained());
  const EvictionStats stats = est.Estimate(key_, 0.001);
  EXPECT_EQ(stats.samples, 0);
  EXPECT_GT(stats.beta, 0.0);
  // And the prior still tapers with the delta.
  EXPECT_GE(stats.beta, est.Estimate(key_, 0.4).beta);
}

TEST_F(EvictionEstimatorTest, EmptySeriesFallsBackToPrior) {
  TraceStore store;
  store.Put({"z0", "c4.xlarge"}, PriceSeries());
  EvictionEstimator est;
  est.Train(store, 0.0, 30 * kDay);
  const EvictionStats stats = est.Estimate({"z0", "c4.xlarge"}, 0.001);
  EXPECT_EQ(stats.samples, 0);
  EXPECT_GT(stats.beta, 0.0);
}

TEST_F(EvictionEstimatorTest, SpikyMarketHasHigherBetaThanCalm) {
  const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
  SyntheticTraceConfig calm;
  calm.spikes_per_day = 0.2;
  SyntheticTraceConfig spiky;
  spiky.spikes_per_day = 12.0;
  Rng rng1(5);
  Rng rng2(5);
  TraceStore store;
  store.Put({"calm", "c4.xlarge"},
            GenerateSyntheticTrace(catalog.Get("c4.xlarge"), 30 * kDay, calm, rng1));
  store.Put({"spiky", "c4.xlarge"},
            GenerateSyntheticTrace(catalog.Get("c4.xlarge"), 30 * kDay, spiky, rng2));
  EvictionEstimator est;
  est.Train(store, 0.0, 30 * kDay);
  EXPECT_GT(est.Estimate({"spiky", "c4.xlarge"}, 0.01).beta,
            est.Estimate({"calm", "c4.xlarge"}, 0.01).beta);
}


// --- Oracle: the per-query replay that the one-pass Train replaced. Each
// delta re-walks the window and prices every sample through PriceAt and
// FirstTimeAbove. Train must reproduce it bit for bit.

std::map<MarketKey, std::vector<EvictionStats>> OracleTrain(const TraceStore& history,
                                                            SimTime train_begin,
                                                            SimTime train_end,
                                                            SimDuration sample_step,
                                                            std::vector<Money> delta_grid) {
  std::sort(delta_grid.begin(), delta_grid.end());
  std::map<MarketKey, std::vector<EvictionStats>> out;
  for (const MarketKey& key : history.Keys()) {
    const PriceSeries& series = history.Get(key);
    if (series.empty()) {
      continue;
    }
    std::vector<EvictionStats> per_delta;
    for (const Money delta : delta_grid) {
      int evicted = 0;
      int samples = 0;
      SampleStats times;
      for (SimTime t = train_begin; t + kHour <= train_end; t += sample_step) {
        const Money bid = series.PriceAt(t) + delta;
        const std::optional<SimTime> crossing = series.FirstTimeAbove(bid, t, t + kHour);
        ++samples;
        if (crossing.has_value()) {
          ++evicted;
          times.Add(*crossing - t);
        }
      }
      EvictionStats stats;
      stats.samples = samples;
      stats.beta = samples > 0 ? static_cast<double>(evicted) / samples : 0.0;
      stats.median_time_to_eviction = times.empty() ? kHour : times.Median();
      per_delta.push_back(stats);
    }
    out[key] = std::move(per_delta);
  }
  return out;
}

void ExpectMatchesOracle(const TraceStore& history, SimTime train_begin, SimTime train_end,
                         SimDuration sample_step, const std::vector<Money>& delta_grid) {
  EvictionEstimator est;
  est.Train(history, train_begin, train_end, sample_step, delta_grid);
  const auto oracle = OracleTrain(history, train_begin, train_end, sample_step, delta_grid);
  for (const MarketKey& key : history.Keys()) {
    const std::vector<EvictionStats>* trained = est.TrainedStats(key);
    const auto it = oracle.find(key);
    ASSERT_EQ(trained == nullptr, it == oracle.end()) << key.zone << "/" << key.instance_type;
    if (trained == nullptr) {
      continue;
    }
    ASSERT_EQ(trained->size(), it->second.size());
    for (std::size_t d = 0; d < trained->size(); ++d) {
      const EvictionStats& got = (*trained)[d];
      const EvictionStats& want = it->second[d];
      EXPECT_EQ(got.beta, want.beta) << key.zone << " delta " << est.delta_grid()[d];
      EXPECT_EQ(got.median_time_to_eviction, want.median_time_to_eviction)
          << key.zone << " delta " << est.delta_grid()[d];
      EXPECT_EQ(got.samples, want.samples) << key.zone << " delta " << est.delta_grid()[d];
    }
  }
}

// A random step series: prices on a tenth-of-a-cent grid (so bids tie
// prices), occasional spikes, and gaps that are either arbitrary or
// whole multiples of 5 minutes (so points land exactly on t + kHour).
PriceSeries RandomSeries(Rng& rng, SimTime first, SimDuration span) {
  PriceSeries series;
  Money price = std::round(rng.Uniform(0.02, 0.5) * 1000.0) / 1000.0;
  for (SimTime t = first; t < first + span;) {
    series.Append(t, price);
    t += rng.Bernoulli(0.5) ? 300.0 * static_cast<double>(rng.UniformInt(1, 24))
                            : rng.Uniform(1.0, 2 * kHour);
    if (rng.Bernoulli(0.1)) {
      price = std::round(rng.Uniform(0.5, 3.0) * 1000.0) / 1000.0;
    } else {
      price = std::max(0.001, price + 0.001 * static_cast<double>(rng.UniformInt(-15, 15)));
    }
  }
  return series;
}

TEST(EvictionEstimatorOracle, RandomSeriesMatchPerQueryReplay) {
  const std::vector<std::vector<Money>> grids = {
      EvictionEstimator::DefaultDeltaGrid(),
      // Unsorted, with a duplicate, a zero and a negative delta (a bid
      // below the price is crossed at the sample instant itself).
      {0.05, 0.001, -0.002, 0.01, 0.0, 0.001, 0.4, 0.002}};
  const SimDuration steps[] = {10 * kMinute, 5 * kMinute, 7.3 * kMinute, kHour};
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed * 7919);
    TraceStore store;
    // Starts at, before and well after the window's begin.
    store.Put({"at", "m"}, RandomSeries(rng, 0.0, 4 * kDay));
    store.Put({"before", "m"}, RandomSeries(rng, -rng.Uniform(0.0, kDay), 4 * kDay));
    store.Put({"late", "m"}, RandomSeries(rng, rng.Uniform(kHour, kDay), 3 * kDay));
    store.Put({"empty", "m"}, PriceSeries());
    PriceSeries flat;
    for (int i = 0; i < 20; ++i) {
      flat.Append(i * 3.0 * kHour, 0.125);
    }
    store.Put({"flat", "m"}, std::move(flat));
    store.Put({"single", "m"}, PriceSeries({{rng.Uniform(0.0, kDay), 0.3}}));
    const SimDuration step = steps[seed % 4];
    const std::vector<Money>& grid = grids[seed % 2];
    ExpectMatchesOracle(store, 0.0, 3 * kDay, step, grid);
    // A window shorter than one hour (no samples) and one just over it.
    ExpectMatchesOracle(store, 0.0, 50 * kMinute, step, grid);
    ExpectMatchesOracle(store, kDay, kDay + kHour + 1.0, step, grid);
    // A window that begins off the 5-minute grid.
    ExpectMatchesOracle(store, rng.Uniform(0.0, kHour), 2 * kDay, step, grid);
  }
}

TEST(EvictionEstimatorOracle, CrossingExactlyAtHorizonCounts) {
  // The price jumps exactly at t + kHour for the sample at t = 0, and a
  // second jump lands one second past the horizon of the sample at 600.
  TraceStore store;
  store.Put({"edge", "m"}, PriceSeries({{0.0, 0.1}, {kHour, 1.0}, {kHour + 1.0, 0.1},
                                        {10 * kMinute + kHour + 1.0, 2.0}}));
  ExpectMatchesOracle(store, 0.0, 2 * kHour, 10 * kMinute, {0.01, 0.5, 1.5, 5.0});
  EvictionEstimator est;
  est.Train(store, 0.0, kHour, 10 * kMinute, {0.01});
  const std::vector<EvictionStats>* stats = est.TrainedStats({"edge", "m"});
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ((*stats)[0].samples, 1);
  EXPECT_EQ((*stats)[0].beta, 1.0);
  EXPECT_EQ((*stats)[0].median_time_to_eviction, kHour);
}

TEST(EvictionEstimatorOracle, SyntheticMarketsMatchPerQueryReplay) {
  const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
  SyntheticTraceConfig config;
  config.spikes_per_day = 8.0;
  Rng rng(3);
  const TraceStore store = TraceStore::GenerateSynthetic(catalog, {"z0"}, 10 * kDay, config, rng);
  ExpectMatchesOracle(store, 0.0, 10 * kDay, 10 * kMinute, EvictionEstimator::DefaultDeltaGrid());
}

}  // namespace
}  // namespace proteus
