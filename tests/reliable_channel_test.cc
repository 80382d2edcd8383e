// ReliableChannel: in-order exactly-once delivery over an adversarial
// link, bounded in-flight window, and a deterministic retransmission
// schedule (same seed + same fault pattern => identical retransmit log
// and byte-identical trace JSON).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "src/chaos/fault_injector.h"
#include "src/obs/trace.h"
#include "src/rpc/channel.h"
#include "src/rpc/messages.h"
#include "src/rpc/reliable.h"

namespace proteus {
namespace {

constexpr double kDt = 0.01;

Message Tagged(std::int32_t i) {
  return Message(AllocationGrantMsg{i, {i, i + 1}, 8});
}

std::int32_t TagOf(const Message& message) {
  const auto* grant = std::get_if<AllocationGrantMsg>(&message);
  return grant != nullptr ? grant->allocation : -1;
}

// Sends `count` tagged messages through a ReliableChannel whose link
// channels carry `profile` faults, pumping to quiescence; returns the
// delivered tag sequence.
struct PumpResult {
  std::vector<std::int32_t> delivered;
  std::uint64_t retransmits = 0;
  std::uint64_t dup_suppressed = 0;
  std::vector<RetransmitRecord> log;
};

void PumpThrough(int count, const LinkFaultProfile& profile, std::uint64_t seed,
                 obs::Tracer* tracer, PumpResult* result_out) {
  Channel data;
  Channel ack;
  FaultScheduleConfig schedule;
  schedule.events = 0;
  FaultInjector injector(seed, schedule);
  data.SetFaultHook(injector.MakeLinkFaultHook(profile));
  ack.SetFaultHook(injector.MakeLinkFaultHook(profile));
  ReliableChannelConfig config;
  config.seed = seed;
  ReliableChannel reliable(&data, &ack, config);
  if (tracer != nullptr) {
    reliable.SetObservability(tracer, nullptr, "test");
  }

  PumpResult result;
  double now = 0.0;
  for (std::int32_t i = 0; i < count; ++i) {
    reliable.Send(Tagged(i), now);
  }
  int rounds = 0;
  while (!reliable.Quiescent()) {
    ASSERT_LT(rounds++, 200000) << "failed to reach quiescence";
    now += kDt;
    reliable.Tick(now);
    while (std::optional<Message> m = reliable.Receive(now)) {
      result.delivered.push_back(TagOf(*m));
    }
  }
  while (std::optional<Message> m = reliable.Receive(now)) {
    result.delivered.push_back(TagOf(*m));
  }
  result.retransmits = reliable.retransmits();
  result.dup_suppressed = reliable.dup_suppressed();
  result.log = reliable.retransmit_log();
  *result_out = std::move(result);
}

PumpResult Pump(int count, const LinkFaultProfile& profile, std::uint64_t seed,
                obs::Tracer* tracer = nullptr) {
  PumpResult result;
  PumpThrough(count, profile, seed, tracer, &result);
  return result;
}

TEST(ReliableChannelTest, CleanLinkDeliversInOrder) {
  const PumpResult r = Pump(50, LinkFaultProfile{}, 7);
  ASSERT_EQ(r.delivered.size(), 50U);
  for (std::int32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(r.delivered[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(r.retransmits, 0U);
  EXPECT_EQ(r.dup_suppressed, 0U);
}

TEST(ReliableChannelTest, DropsReordersAndDuplicatesAreMasked) {
  LinkFaultProfile profile;
  profile.drop_permille = 250;
  profile.delay_permille = 200;  // Delayed frames can be overtaken.
  profile.dup_permille = 200;
  for (std::uint64_t seed : {1ULL, 42ULL, 4242ULL}) {
    const PumpResult r = Pump(120, profile, seed);
    ASSERT_EQ(r.delivered.size(), 120U) << "seed " << seed;
    for (std::int32_t i = 0; i < 120; ++i) {
      ASSERT_EQ(r.delivered[static_cast<std::size_t>(i)], i)
          << "seed " << seed << ": out of order at " << i;
    }
    EXPECT_GT(r.retransmits, 0U) << "seed " << seed;
  }
}

TEST(ReliableChannelTest, BlackholeWindowsAreSurvived) {
  LinkFaultProfile profile;
  profile.blackhole_every = 10;
  profile.blackhole_len = 3;  // 30% of sends swallowed in bursts.
  const PumpResult r = Pump(80, profile, 3);
  ASSERT_EQ(r.delivered.size(), 80U);
  for (std::int32_t i = 0; i < 80; ++i) {
    ASSERT_EQ(r.delivered[static_cast<std::size_t>(i)], i);
  }
  EXPECT_GT(r.retransmits, 0U);
}

TEST(ReliableChannelTest, AckLossForcesRetransmitButNeverRedelivery) {
  Channel data;  // Clean data path.
  Channel ack;
  // Cumulative acks shrug off random loss (the next surviving ack covers
  // everything before it), so to force a timeout we must blackhole the
  // ack path outright for longer than the RTO.
  int acks_swallowed = 0;
  ack.SetFaultHook([&acks_swallowed](const Message&) {
    ChannelFault fault;
    if (acks_swallowed < 40) {
      ++acks_swallowed;
      fault.action = ChannelFault::Action::kDrop;
    }
    return fault;
  });
  ReliableChannel reliable(&data, &ack, {});

  double now = 0.0;
  for (std::int32_t i = 0; i < 60; ++i) {
    reliable.Send(Tagged(i), now);
  }
  std::vector<std::int32_t> delivered;
  int rounds = 0;
  while (!reliable.Quiescent() && rounds++ < 200000) {
    now += kDt;
    reliable.Tick(now);
    while (std::optional<Message> m = reliable.Receive(now)) {
      delivered.push_back(TagOf(*m));
    }
  }
  ASSERT_EQ(delivered.size(), 60U);  // Exactly once, despite lost acks.
  for (std::int32_t i = 0; i < 60; ++i) {
    ASSERT_EQ(delivered[static_cast<std::size_t>(i)], i);
  }
  EXPECT_GT(reliable.retransmits(), 0U);
  // Every retransmitted frame had already landed; the receiver must
  // have suppressed the copies.
  EXPECT_GT(reliable.dup_suppressed(), 0U);
}

TEST(ReliableChannelTest, WindowBoundsInFlight) {
  Channel data;
  Channel ack;
  ReliableChannelConfig config;
  config.window = 8;
  ReliableChannel reliable(&data, &ack, config);
  for (std::int32_t i = 0; i < 100; ++i) {
    reliable.Send(Tagged(i), 0.0);
    EXPECT_LE(reliable.in_flight(), 8U);
  }
  EXPECT_EQ(reliable.in_flight(), 8U);
  EXPECT_EQ(reliable.backlog(), 92U);
  // Draining acks opens the window for the backlog.
  double now = 0.0;
  int rounds = 0;
  std::size_t delivered = 0;
  while (!reliable.Quiescent() && rounds++ < 200000) {
    now += kDt;
    reliable.Tick(now);
    EXPECT_LE(reliable.in_flight(), 8U);
    while (reliable.Receive(now)) {
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 100U);
  EXPECT_EQ(reliable.backlog(), 0U);
}

TEST(ReliableChannelTest, RetransmitScheduleIsDeterministic) {
  LinkFaultProfile profile;
  profile.drop_permille = 300;
  profile.dup_permille = 150;
  profile.blackhole_every = 25;
  profile.blackhole_len = 2;
  for (std::uint64_t seed : {5ULL, 99ULL}) {
    obs::Tracer ta;
    obs::Tracer tb;
    const PumpResult a = Pump(100, profile, seed, &ta);
    const PumpResult b = Pump(100, profile, seed, &tb);
    ASSERT_EQ(a.log.size(), b.log.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.log.size(); ++i) {
      EXPECT_EQ(a.log[i].seq, b.log[i].seq) << "seed " << seed << " entry " << i;
      EXPECT_EQ(a.log[i].attempt, b.log[i].attempt) << "seed " << seed << " entry " << i;
      EXPECT_EQ(a.log[i].at, b.log[i].at) << "seed " << seed << " entry " << i;
    }
    EXPECT_EQ(a.retransmits, b.retransmits) << "seed " << seed;
    EXPECT_EQ(a.dup_suppressed, b.dup_suppressed) << "seed " << seed;
    // Same schedule => byte-identical trace (send, retransmit and
    // delivery instants included).
    EXPECT_EQ(ta.ToChromeJson(), tb.ToChromeJson()) << "seed " << seed;
    EXPECT_GT(a.log.size(), 0U) << "seed " << seed << ": schedule never retransmitted";
  }
}

TEST(ReliableChannelTest, DifferentSeedsDifferentJitter) {
  LinkFaultProfile profile;
  profile.drop_permille = 300;
  const PumpResult a = Pump(100, profile, 5);
  const PumpResult b = Pump(100, profile, 6);
  ASSERT_FALSE(a.log.empty());
  ASSERT_FALSE(b.log.empty());
  bool differs = a.log.size() != b.log.size();
  for (std::size_t i = 0; !differs && i < a.log.size(); ++i) {
    differs = a.log[i].seq != b.log[i].seq || a.log[i].at != b.log[i].at;
  }
  EXPECT_TRUE(differs);
}

TEST(ReliableChannelTest, NonReliableTrafficPassesThrough) {
  Channel data;
  Channel ack;
  ReliableChannel reliable(&data, &ack, {});
  data.Send(Message(WorkerReadyMsg{3, 4}));
  const std::optional<Message> m = reliable.Receive(0.0);
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(std::holds_alternative<WorkerReadyMsg>(*m));
}

}  // namespace
}  // namespace proteus
