#include <gtest/gtest.h>

#include "src/cluster/allocator.h"
#include "src/cluster/fairness.h"
#include "src/cluster/karma.h"
#include "src/common/rng.h"

namespace proteus {
namespace cluster {
namespace {

std::vector<SlotDemand> Demands(std::vector<int> slots) {
  std::vector<SlotDemand> demands;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    demands.push_back({static_cast<int>(i), slots[i]});
  }
  return demands;
}

int Granted(const std::vector<SlotGrant>& grants) {
  int sum = 0;
  for (const SlotGrant& g : grants) {
    sum += g.slots;
  }
  return sum;
}

TEST(AllocatorTest, RotatingFairSharesSplitEvenly) {
  const std::vector<int> shares = RotatingFairShares(0, 12, 4);
  EXPECT_EQ(shares, (std::vector<int>{3, 3, 3, 3}));
}

TEST(AllocatorTest, RotatingRemainderMovesWithRound) {
  // 10 slots, 4 claimants: base 2, remainder 2 rotates.
  EXPECT_EQ(RotatingFairShares(0, 10, 4), (std::vector<int>{3, 3, 2, 2}));
  EXPECT_EQ(RotatingFairShares(1, 10, 4), (std::vector<int>{2, 3, 3, 2}));
  EXPECT_EQ(RotatingFairShares(3, 10, 4), (std::vector<int>{3, 2, 2, 3}));
  // Over n consecutive rounds every index gets the same total.
  std::vector<int> totals(4, 0);
  for (int r = 0; r < 4; ++r) {
    const std::vector<int> shares = RotatingFairShares(r, 10, 4);
    for (int i = 0; i < 4; ++i) {
      totals[static_cast<std::size_t>(i)] += shares[static_cast<std::size_t>(i)];
    }
  }
  EXPECT_EQ(totals, (std::vector<int>{10, 10, 10, 10}));
}

TEST(AllocatorTest, FairShareCapsAtShareAndWastesUnused) {
  StaticFairShareAllocator alloc;
  // Shares are 3 each; tenant 0 wants 1, the rest want 6. The unused 2
  // slots are wasted: total granted is 10, not 12.
  const std::vector<SlotGrant> grants = alloc.Allocate(0, 12, Demands({1, 6, 6, 6}));
  EXPECT_EQ(grants[0].slots, 1);
  EXPECT_EQ(grants[1].slots, 3);
  EXPECT_EQ(Granted(grants), 10);
  for (const SlotGrant& g : grants) {
    EXPECT_EQ(g.borrowed, 0);
  }
}

TEST(AllocatorTest, GreedyRewardsTheBiggestReport) {
  GreedyMaxBidAllocator alloc;
  const std::vector<SlotGrant> grants = alloc.Allocate(0, 10, Demands({4, 9, 4}));
  EXPECT_EQ(grants[1].slots, 9);  // Biggest report served first.
  EXPECT_EQ(grants[0].slots, 1);  // Tie at 4 broken toward tenant 0.
  EXPECT_EQ(grants[2].slots, 0);
  EXPECT_EQ(Granted(grants), 10);
}

TEST(AllocatorTest, GreedyNeverExceedsCapacity) {
  GreedyMaxBidAllocator alloc;
  const std::vector<SlotGrant> grants = alloc.Allocate(0, 6, Demands({20, 20}));
  EXPECT_EQ(Granted(grants), 6);
}

TEST(AllocatorTest, FactoryBuildsEveryMechanism) {
  EXPECT_EQ(MakeAllocator("fair")->name(), "fair_share");
  EXPECT_EQ(MakeAllocator("fair_share")->name(), "fair_share");
  EXPECT_EQ(MakeAllocator("greedy")->name(), "greedy");
  EXPECT_EQ(MakeAllocator("karma")->name(), "karma");
  const auto karma = MakeAllocator("karma:init=5");
  ASSERT_NE(karma, nullptr);
  EXPECT_EQ(static_cast<const KarmaAllocator*>(karma.get())->config().init_credits, 5);
}

TEST(AllocatorTest, FactoryRejectsBadSpecs) {
  std::string error;
  EXPECT_EQ(MakeAllocator("auction", &error), nullptr);
  EXPECT_NE(error.find("auction"), std::string::npos);
  EXPECT_EQ(MakeAllocator("karma:init=", &error), nullptr);
  EXPECT_EQ(MakeAllocator("karma:init=-3", &error), nullptr);
  EXPECT_EQ(MakeAllocator("karma:init=2x", &error), nullptr);
}

class KarmaAllocatorTest : public ::testing::Test {
 protected:
  static KarmaAllocator Make(int tenants, std::int64_t init = 32) {
    KarmaConfig config;
    config.init_credits = init;
    KarmaAllocator alloc(config);
    for (int t = 0; t < tenants; ++t) {
      alloc.OnTenantAdmitted(t);
    }
    return alloc;
  }
};

TEST_F(KarmaAllocatorTest, DonorEarnsCreditsNextRound) {
  KarmaAllocator alloc = Make(2);
  // Capacity 8, shares 4/4. Tenant 0 wants 2 (donates 2), tenant 1 wants
  // 6 (borrows 2, paying 2 credits into escrow).
  const std::vector<SlotGrant> r0 = alloc.Allocate(0, 8, Demands({2, 6}));
  EXPECT_EQ(r0[0].slots, 2);
  EXPECT_EQ(r0[1].slots, 6);
  EXPECT_EQ(r0[1].borrowed, 2);
  EXPECT_EQ(alloc.CreditBalance(1), 30);
  EXPECT_EQ(alloc.Escrow(), 2);           // In flight between rounds.
  EXPECT_EQ(alloc.CreditBalance(0), 32);  // Payout lands next round.
  EXPECT_TRUE(alloc.ConservationHolds());

  alloc.Allocate(1, 8, Demands({4, 4}));  // No trading this round.
  EXPECT_EQ(alloc.CreditBalance(0), 34);  // Donor paid out.
  EXPECT_EQ(alloc.Escrow(), 0);
  EXPECT_TRUE(alloc.ConservationHolds());
}

TEST_F(KarmaAllocatorTest, BorrowingRequiresCredits) {
  KarmaAllocator alloc = Make(2, 0);  // Broke tenants.
  const std::vector<SlotGrant> grants = alloc.Allocate(0, 8, Demands({0, 8}));
  // Tenant 1 gets its share but cannot pay for the donated slots.
  EXPECT_EQ(grants[1].slots, 4);
  EXPECT_EQ(grants[1].borrowed, 0);
  EXPECT_EQ(alloc.Escrow(), 0);
  EXPECT_TRUE(alloc.ConservationHolds());
}

TEST_F(KarmaAllocatorTest, ContestedDonationsGoRichestFirst) {
  // With no credits anywhere, donated slots go unborrowed.
  KarmaAllocator broke = Make(3, 0);
  const std::vector<SlotGrant> r0 = broke.Allocate(0, 9, Demands({0, 3, 3}));
  EXPECT_EQ(r0[1].borrowed + r0[2].borrowed, 0);
  EXPECT_TRUE(broke.ConservationHolds());

  KarmaAllocator k = Make(3, 2);
  // Burn tenant 2's credits: capacity 9 (shares 3). Tenant 0 donates 3,
  // tenant 2 borrows 2 (its whole balance), tenant 1 sits at its share.
  const std::vector<SlotGrant> warm = k.Allocate(0, 9, Demands({0, 3, 6}));
  EXPECT_EQ(warm[2].borrowed, 2);
  EXPECT_EQ(k.CreditBalance(2), 0);
  // Now tenants 1 and 2 both want the 3 donated slots; tenant 1 has 2
  // credits, tenant 2 has 0: richest-first gives both payable slots to
  // tenant 1, none to tenant 2.
  const std::vector<SlotGrant> r1 = k.Allocate(1, 9, Demands({0, 6, 6}));
  EXPECT_EQ(r1[1].borrowed, 2);
  EXPECT_EQ(r1[2].borrowed, 0);
  EXPECT_TRUE(k.ConservationHolds());
}

TEST_F(KarmaAllocatorTest, TiesBreakTowardLowerTenantId) {
  KarmaConfig config;
  config.init_credits = 1;
  KarmaAllocator alloc(config);
  alloc.OnTenantAdmitted(0);
  alloc.OnTenantAdmitted(1);
  alloc.OnTenantAdmitted(2);
  // Shares 3 each; tenant 0 donates 3; tenants 1 and 2 each want more
  // with equal balances (1 credit each): only 2 of the 3 donated slots
  // can be paid for, one each — and with a single slot left and a fresh
  // tie, the lower id would win. Check the full grant vector.
  const std::vector<SlotGrant> grants = alloc.Allocate(0, 9, Demands({0, 6, 6}));
  EXPECT_EQ(grants[1].borrowed, 1);
  EXPECT_EQ(grants[2].borrowed, 1);
  EXPECT_EQ(alloc.Escrow(), 2);
  EXPECT_TRUE(alloc.ConservationHolds());
}

TEST_F(KarmaAllocatorTest, ConservationHoldsOverRandomChurn) {
  KarmaAllocator alloc = Make(0, 16);
  Rng rng(2024);
  std::vector<int> admitted;
  int next_id = 0;
  std::int64_t escrow_seen = 0;
  for (int round = 0; round < 400; ++round) {
    // Random admissions and retirements.
    if (admitted.size() < 6 && rng.Bernoulli(0.3)) {
      alloc.OnTenantAdmitted(next_id);
      admitted.push_back(next_id);
      ++next_id;
    }
    if (admitted.size() > 1 && rng.Bernoulli(0.15)) {
      const std::size_t victim =
          static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(admitted.size()) - 1));
      alloc.OnTenantRetired(admitted[victim]);
      admitted.erase(admitted.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    if (admitted.empty()) {
      continue;
    }
    std::vector<SlotDemand> demands;
    for (const int t : admitted) {
      demands.push_back({t, static_cast<int>(rng.UniformInt(0, 12))});
    }
    const int capacity = static_cast<int>(rng.UniformInt(0, 24));
    const std::vector<SlotGrant> grants = alloc.Allocate(round, capacity, demands);
    ASSERT_TRUE(alloc.ConservationHolds()) << "round " << round;
    ASSERT_LE(Granted(grants), capacity);
    for (std::size_t i = 0; i < grants.size(); ++i) {
      ASSERT_LE(grants[i].slots, demands[i].slots);
      ASSERT_GE(alloc.CreditBalance(demands[i].tenant), 0);
    }
    escrow_seen += alloc.Escrow();
  }
  EXPECT_GT(escrow_seen, 0);  // The churn actually exercised borrowing.
}

TEST_F(KarmaAllocatorTest, EscrowRetiresWhenDonorLeaves) {
  KarmaAllocator alloc = Make(2);
  alloc.Allocate(0, 8, Demands({2, 6}));  // Tenant 0 is owed 2 credits.
  EXPECT_EQ(alloc.Escrow(), 2);
  alloc.OnTenantRetired(0);  // Leaves before the payout lands.
  EXPECT_TRUE(alloc.ConservationHolds());
  alloc.Allocate(1, 8, {SlotDemand{1, 4}});
  // The orphaned payout retired instead of vanishing.
  EXPECT_EQ(alloc.Escrow(), 0);
  EXPECT_EQ(alloc.retired(), 32 + 2);
  EXPECT_TRUE(alloc.ConservationHolds());
}

TEST(FairnessTest, JainIndexBounds) {
  EXPECT_DOUBLE_EQ(JainIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(JainIndex({0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(JainIndex({5.0, 5.0, 5.0}), 1.0);
  EXPECT_NEAR(JainIndex({1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
  const double mixed = JainIndex({4.0, 2.0, 2.0});
  EXPECT_GT(mixed, 0.25);
  EXPECT_LT(mixed, 1.0);
}

}  // namespace
}  // namespace cluster
}  // namespace proteus
