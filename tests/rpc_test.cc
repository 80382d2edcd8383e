#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <variant>

#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/rpc/channel.h"
#include "src/rpc/messages.h"
#include "src/rpc/serializer.h"

namespace proteus {
namespace {

TEST(Serializer, ScalarRoundTrip) {
  WireWriter w;
  w.Reserve(1 + 4 + 8 + 4 + 8 + 8);  // The exact encoded size: no regrowth.
  w.U8(7);
  w.U32(123456);
  w.U64(1ULL << 40);
  w.I32(-42);
  w.I64(-(1LL << 33));
  w.F64(3.14159);
  EXPECT_EQ(w.bytes().size(), 33u);
  WireReader r(w.bytes());
  EXPECT_EQ(r.U8().value(), 7);
  EXPECT_EQ(r.U32().value(), 123456u);
  EXPECT_EQ(r.U64().value(), 1ULL << 40);
  EXPECT_EQ(r.I32().value(), -42);
  EXPECT_EQ(r.I64().value(), -(1LL << 33));
  EXPECT_DOUBLE_EQ(r.F64().value(), 3.14159);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serializer, StringAndArrayRoundTrip) {
  WireWriter w;
  w.Str("hello proteus");
  const std::vector<float> floats{1.5F, -2.5F, 0.0F};
  w.FloatArray(floats);
  const std::vector<std::int32_t> ints{10, 20, 30};
  w.I32Array(ints);
  WireReader r(w.bytes());
  EXPECT_EQ(r.Str().value(), "hello proteus");
  EXPECT_EQ(r.FloatArray().value(), floats);
  EXPECT_EQ(r.I32Array().value(), ints);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serializer, TruncationFailsCleanly) {
  WireWriter w;
  w.U64(99);
  auto bytes = w.Take();
  bytes.resize(4);  // Cut in half.
  WireReader r(bytes);
  EXPECT_FALSE(r.U64().has_value());
  EXPECT_TRUE(r.failed());
  // Subsequent reads stay failed.
  EXPECT_FALSE(r.U8().has_value());
}

TEST(Serializer, HostileLengthRejectedWithoutAllocation) {
  WireWriter w;
  w.U32(0xFFFFFFFFu);  // Claimed array length ~4 billion.
  WireReader r(w.bytes());
  EXPECT_FALSE(r.FloatArray().has_value());
  EXPECT_TRUE(r.failed());
}

// WireReader::VarU64 parses checkpoint manifests and reliable frames;
// a varint that overflows 64 bits or runs past 10 bytes must fail.
TEST(Serializer, VarintOverflowRejected) {
  WireWriter max;
  max.VarU64(~0ULL);
  WireReader max_reader(max.bytes());
  EXPECT_EQ(max_reader.VarU64().value(), ~0ULL);
  EXPECT_TRUE(max_reader.AtEnd());

  // Nine continuation bytes, then a tenth carrying bits above 2^64.
  WireWriter overflow;
  for (int i = 0; i < 9; ++i) {
    overflow.U8(0xFF);
  }
  overflow.U8(0x7F);
  WireReader overflow_reader(overflow.bytes());
  EXPECT_FALSE(overflow_reader.VarU64().has_value());
  EXPECT_TRUE(overflow_reader.failed());

  // A tenth byte that fits but still sets the continuation bit.
  WireWriter too_long;
  for (int i = 0; i < 9; ++i) {
    too_long.U8(0x80);
  }
  too_long.U8(0x81);
  too_long.U8(0x00);
  WireReader too_long_reader(too_long.bytes());
  EXPECT_FALSE(too_long_reader.VarU64().has_value());
  EXPECT_TRUE(too_long_reader.failed());
}

TEST(Serializer, TruncatedVarintFailsCleanly) {
  WireWriter w;
  w.VarU64(1ULL << 40);  // Six bytes on the wire.
  const std::vector<std::uint8_t>& bytes = w.bytes();
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    WireReader r(std::span(bytes.data(), n));
    EXPECT_FALSE(r.VarU64().has_value()) << "prefix " << n;
    EXPECT_TRUE(r.failed()) << "prefix " << n;
    EXPECT_FALSE(r.U8().has_value()) << "prefix " << n;
  }
}

TEST(Messages, AllTypesRoundTrip) {
  const std::vector<Message> originals = {
      AppCharacteristicsMsg{0.95, 30.0, 60.0, 8.0},
      AllocationRequestMsg{"us-east-1a", "c4.xlarge", 16, 0.23},
      AllocationGrantMsg{7, {100, 101, 102}, 4},
      EvictionNoticeMsg{7, {100, 101}, 120.0},
      ReadParamMsg{1, 123456789LL},
      ParamValueMsg{1, 42, {1.0F, 2.0F}},
      UpdateParamMsg{0, 7, {-0.5F}},
      WorkerReadyMsg{103, 25000},
  };
  for (const Message& original : originals) {
    const auto frame = EncodeMessage(original);
    const auto decoded = DecodeMessage(frame);
    ASSERT_TRUE(decoded.has_value()) << "type " << static_cast<int>(TypeOf(original));
    EXPECT_EQ(TypeOf(*decoded), TypeOf(original));
  }
}

TEST(Messages, FieldFidelity) {
  const AllocationRequestMsg original{"zone-b", "m4.2xlarge", 32, 0.431};
  const auto decoded = DecodeMessage(EncodeMessage(Message(original)));
  ASSERT_TRUE(decoded.has_value());
  const auto& m = std::get<AllocationRequestMsg>(*decoded);
  EXPECT_EQ(m.zone, "zone-b");
  EXPECT_EQ(m.instance_type, "m4.2xlarge");
  EXPECT_EQ(m.count, 32);
  EXPECT_DOUBLE_EQ(m.bid, 0.431);
}

TEST(Messages, UnknownTagRejected) {
  std::vector<std::uint8_t> frame{0xEE, 0, 0, 0};
  EXPECT_FALSE(DecodeMessage(frame).has_value());
  EXPECT_FALSE(DecodeMessage({}).has_value());
  // Tag 9 is unassigned: a frame in the retired delta-batch layout
  // (i32 shard, i64 clock, empty blob) must not decode.
  WireWriter retired;
  retired.U8(9);
  retired.I32(0);
  retired.I64(0);
  retired.Blob({});
  EXPECT_FALSE(DecodeMessage(retired.bytes()).has_value());
}

TEST(Messages, TrailingGarbageRejected) {
  auto frame = EncodeMessage(Message(ReadParamMsg{1, 2}));
  frame.push_back(0xAB);
  EXPECT_FALSE(DecodeMessage(frame).has_value());
}

TEST(Messages, TruncatedFramesNeverDecode) {
  // Property: every strict prefix of a valid frame must fail to decode.
  const auto frame = EncodeMessage(Message(ParamValueMsg{3, 99, {1.0F, 2.0F, 3.0F}}));
  for (std::size_t n = 0; n < frame.size(); ++n) {
    EXPECT_FALSE(DecodeMessage(std::span(frame.data(), n)).has_value()) << "prefix " << n;
  }
}

TEST(Messages, RandomBytesNeverCrash) {
  Rng rng(1234);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(static_cast<std::size_t>(rng.UniformInt(0, 64)));
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
    }
    (void)DecodeMessage(junk);  // Must not crash or overrun.
  }
}

TEST(Channel, OrderedDelivery) {
  Channel channel;
  channel.Send(Message(ReadParamMsg{0, 1}));
  channel.Send(Message(ReadParamMsg{0, 2}));
  EXPECT_EQ(channel.pending(), 2u);
  const auto first = channel.Poll();
  const auto second = channel.Poll();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(std::get<ReadParamMsg>(*first).row, 1);
  EXPECT_EQ(std::get<ReadParamMsg>(*second).row, 2);
  EXPECT_FALSE(channel.Poll().has_value());
}


TEST(Serializer, EmptyCollectionsRoundTrip) {
  WireWriter w;
  w.Str("");
  w.FloatArray({});
  w.I32Array({});
  WireReader r(w.bytes());
  EXPECT_EQ(r.Str().value(), "");
  EXPECT_TRUE(r.FloatArray().value().empty());
  EXPECT_TRUE(r.I32Array().value().empty());
  EXPECT_TRUE(r.AtEnd());
}

TEST(Channel, CrossThreadDelivery) {
  Channel channel;
  constexpr int kMessages = 500;
  std::thread producer([&channel] {
    for (int i = 0; i < kMessages; ++i) {
      channel.Send(Message(ReadParamMsg{0, i}));
    }
  });
  int received = 0;
  std::int64_t last_row = -1;
  while (received < kMessages) {
    const auto message = channel.Poll();
    if (!message.has_value()) {
      std::this_thread::yield();
      continue;
    }
    const auto& m = std::get<ReadParamMsg>(*message);
    EXPECT_EQ(m.row, last_row + 1) << "ordered delivery";
    last_row = m.row;
    ++received;
  }
  producer.join();
  EXPECT_EQ(channel.messages_sent(), static_cast<std::uint64_t>(kMessages));
}

TEST(Channel, CountsMessagesAndBytes) {
  Channel channel;
  channel.Send(Message(WorkerReadyMsg{1, 100}));
  channel.Send(Message(WorkerReadyMsg{2, 100}));
  EXPECT_EQ(channel.messages_sent(), 2u);
  EXPECT_GT(channel.bytes_sent(), 2u * 8u);
}

template <std::size_t... I>
std::vector<Message> OneOfEachAlternative(std::index_sequence<I...>) {
  return {Message(std::in_place_index<I>)...};
}

TEST(Channel, EveryMessageTypeHasMetricSeries) {
  // One frame of every Message alternative, so a type added later is
  // covered here without editing this test: each must get its own
  // type=<name> series rather than fall into the unexported catch-all.
  const std::vector<Message> messages =
      OneOfEachAlternative(std::make_index_sequence<std::variant_size_v<Message>>{});
  obs::MetricsRegistry metrics;
  Channel channel;
  channel.SetObservability(&metrics, "ctl");
  std::vector<int> tags;
  for (const Message& message : messages) {
    channel.Send(message);
    tags.push_back(static_cast<int>(TypeOf(message)));
  }
  EXPECT_EQ(tags, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 10, 11}));
  while (channel.Poll().has_value()) {
  }
  const obs::MetricsSnapshot snapshot = metrics.Snapshot();
  for (const Message& message : messages) {
    const obs::Labels labels = {{"channel", "ctl"}, {"type", MessageTypeName(TypeOf(message))}};
    EXPECT_EQ(snapshot.Value("rpc.messages.sent", labels), 1.0) << labels[1].second;
    EXPECT_EQ(snapshot.Value("rpc.messages.delivered", labels), 1.0) << labels[1].second;
    EXPECT_GT(snapshot.Value("rpc.bytes.sent", labels), 0.0) << labels[1].second;
    for (const char* name :
         {"rpc.messages.dropped", "rpc.messages.delayed", "rpc.messages.duplicated"}) {
      EXPECT_NE(snapshot.Find(name, labels), nullptr) << name << " " << labels[1].second;
    }
  }
}

TEST(Channel, DuplicateFaultDeliversExtraCopies) {
  Channel channel;
  channel.SetFaultHook([](const Message&) {
    ChannelFault fault;
    fault.action = ChannelFault::Action::kDuplicate;
    fault.copies = 3;
    return fault;
  });
  channel.Send(Message(ReadParamMsg{0, 7}));
  EXPECT_EQ(channel.pending(), 3u);
  EXPECT_EQ(channel.messages_duplicated(), 2u);  // Extras beyond the original.
  for (int i = 0; i < 3; ++i) {
    const auto m = channel.Poll();
    ASSERT_TRUE(m.has_value()) << "copy " << i;
    EXPECT_EQ(std::get<ReadParamMsg>(*m).row, 7);
  }
  EXPECT_FALSE(channel.Poll().has_value());
}

TEST(Channel, ConservationHoldsNetOfDuplicates) {
  // sent == delivered + dropped + pending - duplicated, under a mix of
  // deliver / drop / delay / duplicate decisions.
  Channel channel;
  int n = 0;
  channel.SetFaultHook([&n](const Message&) {
    ChannelFault fault;
    switch (n++ % 4) {
      case 0:
        break;  // Deliver.
      case 1:
        fault.action = ChannelFault::Action::kDrop;
        break;
      case 2:
        fault.action = ChannelFault::Action::kDelay;
        fault.delay_polls = 2;
        break;
      default:
        fault.action = ChannelFault::Action::kDuplicate;
        fault.copies = 2;
        break;
    }
    return fault;
  });
  for (std::int64_t i = 0; i < 40; ++i) {
    channel.Send(Message(ReadParamMsg{0, i}));
    if (i % 3 == 0) {
      (void)channel.Poll();
    }
  }
  const auto check = [&channel] {
    EXPECT_EQ(channel.messages_sent(),
              channel.messages_delivered() + channel.messages_dropped() +
                  channel.pending() - channel.messages_duplicated());
  };
  check();  // Mid-flight (delayed frames still pending).
  // Drain; a nullopt Poll still ages delayed frames, so keep polling
  // until nothing is pending.
  for (int guard = 0; channel.pending() > 0 && guard < 1000; ++guard) {
    (void)channel.Poll();
  }
  check();  // Drained: pending == 0.
  EXPECT_EQ(channel.pending(), 0u);
  EXPECT_GT(channel.messages_dropped(), 0u);
  EXPECT_GT(channel.messages_duplicated(), 0u);
}

}  // namespace
}  // namespace proteus
