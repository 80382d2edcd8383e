#include <gtest/gtest.h>

#include "src/market/preemptible.h"

namespace proteus {
namespace {

class PreemptibleTest : public ::testing::Test {
 protected:
  PreemptibleTest() : catalog_(InstanceTypeCatalog::Default()) {}

  PreemptibleMarket Make(PreemptibleConfig config = {}) {
    return PreemptibleMarket(catalog_, config, 71);
  }

  InstanceTypeCatalog catalog_;
};

TEST_F(PreemptibleTest, FixedSeventyPercentDiscount) {
  PreemptibleMarket market = Make();
  EXPECT_NEAR(market.PricePerHour("c4.xlarge"), 0.209 * 0.3, 1e-9);
}

TEST_F(PreemptibleTest, RevocationWithin24Hours) {
  PreemptibleConfig config;
  config.revocations_per_hour = 1e-9;  // Hazard ~never fires.
  PreemptibleMarket market = Make(config);
  const AllocationId id = market.Request("c4.xlarge", 4, 100.0);
  const PreemptibleAllocation& alloc = market.Get(id);
  EXPECT_NEAR(alloc.revocation_time, 100.0 + 24 * kHour, 1.0);
}

TEST_F(PreemptibleTest, HazardDrawsAreFiniteAndVaried) {
  PreemptibleConfig config;
  config.revocations_per_hour = 0.2;  // MTTR 5 hours.
  PreemptibleMarket market = Make(config);
  double total = 0.0;
  for (int i = 0; i < 50; ++i) {
    const AllocationId id = market.Request("c4.xlarge", 1, 0.0);
    const SimDuration life = market.Get(id).revocation_time;
    EXPECT_GT(life, 0.0);
    EXPECT_LE(life, 24 * kHour + 1.0);
    total += life;
  }
  // Mean lifetime near min(Exp(5h), 24h) ~ 5h, certainly under the cap.
  EXPECT_LT(total / 50, 12 * kHour);
}

TEST_F(PreemptibleTest, ShortMaxLifetimeCapsRevocation) {
  // With the hazard effectively off, a 20-second lifetime cap puts the
  // revocation exactly 20 seconds after the request.
  PreemptibleConfig config;
  config.revocations_per_hour = 1e-9;
  config.max_lifetime = 20 * kSecond;
  PreemptibleMarket market = Make(config);
  const AllocationId id = market.Request("c4.xlarge", 1, 500.0);
  EXPECT_DOUBLE_EQ(market.Get(id).revocation_time, 520.0);
}

TEST_F(PreemptibleTest, RevocationInsideWarningWindowStillBillsMinimum) {
  // The entire 20s lifetime sits inside the 30s warning window; GCE
  // billing does not care — the 10-minute minimum applies regardless.
  PreemptibleConfig config;
  config.revocations_per_hour = 1e-9;
  config.max_lifetime = 20 * kSecond;
  PreemptibleMarket market = Make(config);
  const AllocationId id = market.Request("c4.xlarge", 1, 0.0);
  market.MarkRevoked(id);
  EXPECT_EQ(market.Get(id).state, AllocationState::kEvicted);
  EXPECT_DOUBLE_EQ(market.Get(id).end, 20.0);
  EXPECT_NEAR(market.Bill(id, kDay),
              market.PricePerHour("c4.xlarge") * (10.0 / 60.0), 1e-9);
}

TEST_F(PreemptibleTest, PerMinuteBillingWithTenMinuteMinimum) {
  PreemptibleConfig config;
  config.revocations_per_hour = 1e-9;
  PreemptibleMarket market = Make(config);
  const Money rate = market.PricePerHour("c4.xlarge");
  // 3 minutes of use: charged the 10-minute minimum.
  const AllocationId a = market.Request("c4.xlarge", 2, 0.0);
  market.Terminate(a, 3 * kMinute);
  EXPECT_NEAR(market.Bill(a, kDay), rate * 2 * (10.0 / 60.0), 1e-9);
  // 61.5 minutes: rounded up to 62.
  const AllocationId b = market.Request("c4.xlarge", 1, 0.0);
  market.Terminate(b, 61.5 * kMinute);
  EXPECT_NEAR(market.Bill(b, kDay), rate * (62.0 / 60.0), 1e-9);
}

TEST_F(PreemptibleTest, NoRefundOnRevocation) {
  PreemptibleConfig config;
  config.revocations_per_hour = 0.5;
  PreemptibleMarket market = Make(config);
  const AllocationId id = market.Request("c4.xlarge", 1, 0.0);
  market.MarkRevoked(id);
  const PreemptibleAllocation& alloc = market.Get(id);
  EXPECT_EQ(alloc.state, AllocationState::kEvicted);
  // Unlike EC2, the used time is still billed.
  EXPECT_GT(market.Bill(id, kDay), 0.0);
}

TEST_F(PreemptibleTest, TerminateAfterRevocationBecomesRevocation) {
  PreemptibleConfig config;
  config.revocations_per_hour = 10.0;  // Revokes within minutes.
  PreemptibleMarket market = Make(config);
  const AllocationId id = market.Request("c4.xlarge", 1, 0.0);
  market.Terminate(id, 30 * kHour);  // Long after the cap.
  EXPECT_EQ(market.Get(id).state, AllocationState::kEvicted);
}

TEST_F(PreemptibleTest, TotalBillAggregates) {
  PreemptibleConfig config;
  config.revocations_per_hour = 1e-9;
  PreemptibleMarket market = Make(config);
  market.Request("c4.xlarge", 1, 0.0);
  market.Request("c4.2xlarge", 1, 0.0);
  const Money total = market.TotalBill(kHour);
  EXPECT_NEAR(total,
              market.PricePerHour("c4.xlarge") + market.PricePerHour("c4.2xlarge"), 1e-9);
}

}  // namespace
}  // namespace proteus
