#include <gtest/gtest.h>

#include "src/market/trace_gen.h"
#include "src/market/trace_store.h"

namespace proteus {
namespace {

TEST(TraceGen, StaysAboveFloorAndBelowCap) {
  const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
  const InstanceType& type = catalog.Get("c4.xlarge");
  SyntheticTraceConfig config;
  Rng rng(11);
  const PriceSeries series = GenerateSyntheticTrace(type, 7 * kDay, config, rng);
  ASSERT_FALSE(series.empty());
  for (const auto& point : series.points()) {
    EXPECT_GE(point.price, type.on_demand_price * kTraceFloorFraction - 1e-9);
    EXPECT_LE(point.price, type.on_demand_price * kSpikeMultipleMax + 0.5);
  }
}

TEST(TraceGen, QuietRegimeNearBaseFraction) {
  const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
  const InstanceType& type = catalog.Get("c4.2xlarge");
  SyntheticTraceConfig config;
  config.spikes_per_day = 0.0;  // Pure quiet regime.
  Rng rng(12);
  const PriceSeries series = GenerateSyntheticTrace(type, 7 * kDay, config, rng);
  const Money avg = series.AveragePrice(0.0, 7 * kDay);
  EXPECT_NEAR(avg, type.on_demand_price * kTraceBaseFraction,
              type.on_demand_price * kTraceBaseFraction * 0.5);
}

TEST(TraceGen, SpikesExceedOnDemand) {
  const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
  const InstanceType& type = catalog.Get("c4.xlarge");
  SyntheticTraceConfig config;
  config.spikes_per_day = 6.0;
  Rng rng(13);
  const PriceSeries series = GenerateSyntheticTrace(type, 7 * kDay, config, rng);
  EXPECT_GT(series.MaxPrice(0.0, 7 * kDay), type.on_demand_price);
}

TEST(TraceGen, DeterministicBySeed) {
  const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
  const InstanceType& type = catalog.Get("c4.xlarge");
  SyntheticTraceConfig config;
  Rng rng1(99);
  Rng rng2(99);
  const PriceSeries a = GenerateSyntheticTrace(type, kDay, config, rng1);
  const PriceSeries b = GenerateSyntheticTrace(type, kDay, config, rng2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.points()[i].price, b.points()[i].price);
  }
}

TEST(TraceStore, GenerateCoversZonesTimesTypes) {
  const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
  Rng rng(14);
  const TraceStore store = TraceStore::GenerateSynthetic(catalog, {"z0", "z1"}, kDay,
                                                         SyntheticTraceConfig{}, rng);
  EXPECT_EQ(store.Keys().size(), 2 * catalog.types().size());
  EXPECT_NE(store.Find({"z1", "c4.xlarge"}), nullptr);
  EXPECT_EQ(store.Find({"z2", "c4.xlarge"}), nullptr);
}

TEST(TraceStore, CsvRoundTrip) {
  TraceStore store;
  store.Put({"z0", "c4.xlarge"}, PriceSeries({{0.0, 0.05}, {60.0, 0.07}}));
  store.Put({"z1", "m4.xlarge"}, PriceSeries({{0.0, 0.06}}));
  const TraceStore loaded = TraceStore::FromCsv(store.ToCsv());
  ASSERT_EQ(loaded.Keys().size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.Get({"z0", "c4.xlarge"}).PriceAt(61.0), 0.07);
  EXPECT_DOUBLE_EQ(loaded.Get({"z1", "m4.xlarge"}).PriceAt(0.0), 0.06);
}

TEST(InstanceTypeCatalog, DefaultHasPaperTypes) {
  const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
  EXPECT_EQ(catalog.Get("c4.2xlarge").vcpus, 8);
  EXPECT_EQ(catalog.Get("c4.xlarge").vcpus, 4);
  // nu proportionality (footnote 7): c4.2xlarge does 2x c4.xlarge work.
  EXPECT_DOUBLE_EQ(catalog.Get("c4.2xlarge").WorkPerHour(),
                   2 * catalog.Get("c4.xlarge").WorkPerHour());
}

}  // namespace
}  // namespace proteus
