// Typed control-plane messages (§5, Fig. 7): the frames Proteus
// components exchange — AgileML registers its application
// characteristics with BidBrain; BidBrain sends allocation requests to
// the cloud API and forwards grants and eviction notices to the
// elasticity controller; parameter reads/updates flow between worker
// caches and server shards.
//
// Every message encodes to a framed byte buffer (1-byte type tag +
// payload) and decodes with full validation — Decode returns nullopt on
// any malformed frame.
#ifndef SRC_RPC_MESSAGES_H_
#define SRC_RPC_MESSAGES_H_

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "src/common/types.h"
#include "src/rpc/serializer.h"

namespace proteus {

enum class MessageType : std::uint8_t {
  kAppCharacteristics = 1,
  kAllocationRequest = 2,
  kAllocationGrant = 3,
  kEvictionNotice = 4,
  kReadParam = 5,
  kParamValue = 6,
  kUpdateParam = 7,
  kWorkerReady = 8,
  // 9 is unassigned: it framed a retired delta-batch message, and the
  // decoder rejects it like any unknown tag.
  kReliableFrame = 10,
  kRecoveryNotice = 11,
};

// AgileML -> BidBrain at start-up (§5: "a ZMQ message that specifies
// the application characteristics").
struct AppCharacteristicsMsg {
  double phi = 0.0;
  double sigma = 0.0;
  double lambda = 0.0;
  double work_per_core_hour = 1.0;
};

// BidBrain -> cloud API: (instance type, count, bid price) (§4).
struct AllocationRequestMsg {
  std::string zone;
  std::string instance_type;
  std::int32_t count = 0;
  double bid = 0.0;
};

// Cloud -> BidBrain -> elasticity controller: "the list of IP addresses
// and sizes of the instances in the new allocation" (§5).
struct AllocationGrantMsg {
  AllocationId allocation = kInvalidAllocation;
  std::vector<std::int32_t> node_ids;
  std::int32_t vcpus_per_node = 0;
};

// BidBrain -> elasticity controller on an eviction notification (§5).
struct EvictionNoticeMsg {
  AllocationId allocation = kInvalidAllocation;
  std::vector<std::int32_t> node_ids;
  double warning_seconds = 0.0;
};

// Worker cache -> server shard.
struct ReadParamMsg {
  std::int32_t table = 0;
  std::int64_t row = 0;
};

// Server shard -> worker cache.
struct ParamValueMsg {
  std::int32_t table = 0;
  std::int64_t row = 0;
  std::vector<float> value;
};

// Worker cache -> server shard (write-back coalesced delta).
struct UpdateParamMsg {
  std::int32_t table = 0;
  std::int64_t row = 0;
  std::vector<float> delta;
};

// New node -> elasticity controller: data loaded, ready to work (§3.3).
struct WorkerReadyMsg {
  std::int32_t node_id = kInvalidNode;
  std::int64_t items_loaded = 0;
};

// Reliable-transport envelope (see src/rpc/reliable.h): a sequenced
// data frame or a pure ack, carried over the raw Channel. `seq == 0`
// marks an ack-only frame (data sequence numbers start at 1). `cum_ack`
// acknowledges every sequence number <= it; `sacks` selectively
// acknowledges received-out-of-order frames above the cumulative point,
// so the sender can skip retransmitting them. `payload` embeds the
// encoded inner Message as an opaque blob.
struct ReliableFrameMsg {
  std::uint32_t session = 0;
  std::uint64_t seq = 0;
  std::uint64_t cum_ack = 0;
  std::vector<std::uint64_t> sacks;
  std::vector<std::uint8_t> payload;
};

// Controller broadcast after a multi-level recovery (see
// src/agileml/recovery_manager.h): tells every worker which escalation
// depth ran, the clock training resumed from, and — for durable
// restores — the checkpoint epoch that supplied the state.
struct RecoveryNoticeMsg {
  std::int32_t depth = 0;  // RecoveryDepth as an integer.
  std::int64_t restored_clock = 0;
  std::int32_t lost_clocks = 0;
  std::uint64_t checkpoint_epoch = 0;  // 0 = no durable epoch involved.
};

using Message =
    std::variant<AppCharacteristicsMsg, AllocationRequestMsg, AllocationGrantMsg,
                 EvictionNoticeMsg, ReadParamMsg, ParamValueMsg, UpdateParamMsg,
                 WorkerReadyMsg, ReliableFrameMsg, RecoveryNoticeMsg>;

// Frames (type tag + payload) any message.
std::vector<std::uint8_t> EncodeMessage(const Message& message);

// Returns nullopt on unknown tag, truncation, or trailing garbage.
std::optional<Message> DecodeMessage(std::span<const std::uint8_t> frame);

MessageType TypeOf(const Message& message);

// Stable lowercase name for metric labels and trace args, e.g.
// "eviction_notice".
const char* MessageTypeName(MessageType type);

}  // namespace proteus

#endif  // SRC_RPC_MESSAGES_H_
