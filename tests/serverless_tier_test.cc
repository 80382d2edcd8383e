#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/market/serverless_tier.h"

namespace proteus {
namespace {

// A pool with no load, no diurnal swing, no bursts, and no storms: the
// only thing that can end an allocation is the burst cap (or the user).
ServerlessTierConfig Quiet() {
  ServerlessTierConfig config;
  config.capacity.total_slots = 64;
  config.capacity.base_load = 0.0;
  config.capacity.diurnal_amplitude = 0.0;
  config.capacity.bursts_per_day = 0.0;
  config.storms_per_day = 0.0;
  return config;
}

TEST(ServerlessTierTest, BurstCapEndsEvenUndisturbedAllocations) {
  ServerlessTier tier(Quiet());
  const auto id = tier.Request(4, 100.0);
  ASSERT_TRUE(id.has_value());
  const ServerlessAllocation& alloc = tier.Get(*id);
  EXPECT_DOUBLE_EQ(alloc.revocation_time, 100.0 + 45 * kMinute);
  EXPECT_EQ(alloc.revocation_cause, ServerlessRevocationCause::kBurstCap);
  EXPECT_EQ(tier.RunningCount(), 4);
  // The revocation lands at exactly the precomputed instant — there is
  // no warning interval anywhere in the tier's interface.
  tier.MarkRevoked(*id);
  EXPECT_EQ(tier.Get(*id).state, AllocationState::kEvicted);
  EXPECT_DOUBLE_EQ(tier.Get(*id).end, 100.0 + 45 * kMinute);
  EXPECT_EQ(tier.RunningCount(), 0);
}

TEST(ServerlessTierTest, PerSecondBillingNoMinimumCharge) {
  ServerlessTier tier(Quiet());
  const Money rate = kServerlessRatePerSlotHour;
  // 90.5 seconds of use rounds up to 91 billed seconds.
  const auto a = tier.Request(2, 0.0);
  ASSERT_TRUE(a.has_value());
  tier.Terminate(*a, 90.5);
  EXPECT_NEAR(tier.Bill(*a, kDay), rate * 2 * (91.0 / 3600.0), 1e-12);
  // 3 seconds bills 3 seconds — no 10-minute minimum as in preemptible.
  const auto b = tier.Request(1, 0.0);
  ASSERT_TRUE(b.has_value());
  tier.Terminate(*b, 3.0);
  EXPECT_NEAR(tier.Bill(*b, kDay), rate * (3.0 / 3600.0), 1e-12);
}

TEST(ServerlessTierTest, NoRefundOnRevocation) {
  ServerlessTierConfig config = Quiet();
  config.max_burst = 10 * kMinute;
  ServerlessTier tier(config);
  const auto id = tier.Request(1, 0.0);
  ASSERT_TRUE(id.has_value());
  tier.MarkRevoked(*id);
  // The full 600 seconds that ran are billed; nothing is credited back
  // for the provider-side reclaim.
  EXPECT_NEAR(tier.Bill(*id, kDay),
              kServerlessRatePerSlotHour * (600.0 / 3600.0), 1e-12);
}

TEST(ServerlessTierTest, TerminateAfterRevocationBecomesRevocation) {
  ServerlessTierConfig config = Quiet();
  config.max_burst = 10 * kMinute;
  ServerlessTier tier(config);
  const auto id = tier.Request(1, 0.0);
  ASSERT_TRUE(id.has_value());
  tier.Terminate(*id, kHour);  // The burst cap reclaimed it at 10 min.
  const ServerlessAllocation& alloc = tier.Get(*id);
  EXPECT_EQ(alloc.state, AllocationState::kEvicted);
  EXPECT_DOUBLE_EQ(alloc.end, 10 * kMinute);
  EXPECT_EQ(alloc.revocation_cause, ServerlessRevocationCause::kBurstCap);
}

TEST(ServerlessTierTest, UserTerminationClearsTheCause) {
  ServerlessTier tier(Quiet());
  const auto id = tier.Request(3, 0.0);
  ASSERT_TRUE(id.has_value());
  tier.Terminate(*id, 5 * kMinute);
  const ServerlessAllocation& alloc = tier.Get(*id);
  EXPECT_EQ(alloc.state, AllocationState::kTerminated);
  EXPECT_EQ(alloc.revocation_cause, ServerlessRevocationCause::kNone);
  // Billing stops at the termination instant even when queried later.
  EXPECT_NEAR(tier.Bill(*id, kDay),
              kServerlessRatePerSlotHour * 3 * (300.0 / 3600.0), 1e-12);
}

TEST(ServerlessTierTest, RequestDeclinedWhenPoolSqueezed) {
  ServerlessTierConfig config = Quiet();
  config.capacity.total_slots = 8;
  ServerlessTier tier(config);
  const auto a = tier.Request(8, 0.0);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(tier.Request(1, 0.0).has_value());
  tier.Terminate(*a, kMinute);
  EXPECT_TRUE(tier.Request(8, 2 * kMinute).has_value());
}

TEST(ServerlessTierTest, StormDrawKeyedByAllocationNotByNeighbours) {
  ServerlessTierConfig config = Quiet();
  config.storms_per_day = 8.0;
  config.storm_victim_fraction = 0.9;
  config.max_burst = 8 * kHour;
  // Two tiers with the same seed: identical storm schedules, and the
  // same allocation id drawn at the same start time meets the same fate
  // regardless of how large its neighbours are.
  ServerlessTier a(config);
  ServerlessTier b(config);
  const int counts_a[] = {1, 1, 1};
  const int counts_b[] = {1, 5, 1};  // Different neighbour sizes.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(a.Request(counts_a[i], 0.0).has_value());
    ASSERT_TRUE(b.Request(counts_b[i], 0.0).has_value());
  }
  ASSERT_EQ(a.storms().size(), b.storms().size());
  for (std::size_t k = 0; k < a.storms().size(); ++k) {
    EXPECT_DOUBLE_EQ(a.storms()[k].at, b.storms()[k].at);
    EXPECT_DOUBLE_EQ(a.storms()[k].victim_fraction, b.storms()[k].victim_fraction);
  }
  int storm_victims = 0;
  for (AllocationId id = 0; id < 3; ++id) {
    EXPECT_DOUBLE_EQ(a.Get(id).revocation_time, b.Get(id).revocation_time);
    EXPECT_EQ(a.Get(id).revocation_cause, b.Get(id).revocation_cause);
    if (a.Get(id).revocation_cause == ServerlessRevocationCause::kStorm) {
      ++storm_victims;
    }
  }
  // At 0.9 victim fraction and ~16 storms in 48h, the 8-hour burst cap
  // should essentially never win the min.
  EXPECT_GE(storm_victims, 2);
}

TEST(ServerlessTierTest, CorrelatedStormRevokesManyAtOneInstant) {
  ServerlessTierConfig config = Quiet();
  config.storms_per_day = 4.0;
  config.storm_victim_fraction = 1.0;  // Jitter keeps draws >= 0.75.
  config.max_burst = config.horizon;
  ServerlessTier tier(config);
  constexpr int kAllocs = 20;
  for (int i = 0; i < kAllocs; ++i) {
    ASSERT_TRUE(tier.Request(1, 0.0).has_value());
  }
  std::map<SimTime, int> victims_at;
  for (const ServerlessAllocation& alloc : tier.allocations()) {
    if (alloc.revocation_cause == ServerlessRevocationCause::kStorm) {
      ++victims_at[alloc.revocation_time];
    }
  }
  ASSERT_FALSE(victims_at.empty());
  int peak = 0;
  SimTime peak_at = 0.0;
  for (const auto& [at, n] : victims_at) {
    if (n > peak) {
      peak = n;
      peak_at = at;
    }
  }
  // The mass revocation is correlated: a majority of the fleet vanishes
  // in one instant, and that instant is on the published storm schedule.
  EXPECT_GE(peak, kAllocs / 2);
  const bool on_schedule =
      std::any_of(tier.storms().begin(), tier.storms().end(),
                  [&](const StormEvent& s) { return s.at == peak_at; });
  EXPECT_TRUE(on_schedule);
}

TEST(ServerlessTierTest, CapacityCrossingSqueezesNewestClaimFirst) {
  ServerlessTierConfig config;
  config.storms_per_day = 0.0;
  config.max_burst = config.horizon;  // Capacity is the only hazard.
  ServerlessTier tier(config);
  const int at_start = tier.SlotsAt(0.0);
  ASSERT_GT(at_start, 1);
  const auto older = tier.Request(at_start - 1, 0.0);
  const auto newer = tier.Request(1, 0.0);
  ASSERT_TRUE(older.has_value());
  ASSERT_TRUE(newer.has_value());
  // LIFO claims: the newest allocation holds the highest level and is
  // squeezed out at the first dip below it.
  EXPECT_EQ(tier.Get(*newer).claimed_level, at_start);
  EXPECT_LT(tier.Get(*older).claimed_level, at_start);
  const std::optional<SimTime> squeeze =
      tier.capacity_trace().FirstTimeBelow(at_start, 0.0, config.horizon);
  ASSERT_TRUE(squeeze.has_value());  // Diurnal swing guarantees a dip.
  EXPECT_DOUBLE_EQ(tier.Get(*newer).revocation_time, *squeeze);
  EXPECT_EQ(tier.Get(*newer).revocation_cause, ServerlessRevocationCause::kCapacity);
  EXPECT_LE(tier.Get(*newer).revocation_time, tier.Get(*older).revocation_time);
}

TEST(ServerlessTierTest, CauseNamesAreStable) {
  EXPECT_STREQ(ServerlessRevocationCauseName(ServerlessRevocationCause::kNone), "none");
  EXPECT_STREQ(ServerlessRevocationCauseName(ServerlessRevocationCause::kBurstCap),
               "burst-cap");
  EXPECT_STREQ(ServerlessRevocationCauseName(ServerlessRevocationCause::kStorm), "storm");
  EXPECT_STREQ(ServerlessRevocationCauseName(ServerlessRevocationCause::kCapacity),
               "capacity");
}

}  // namespace
}  // namespace proteus
