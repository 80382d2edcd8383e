#include "src/rpc/messages.h"

namespace proteus {

namespace {

void EncodeBody(WireWriter& w, const AppCharacteristicsMsg& m) {
  w.F64(m.phi);
  w.F64(m.sigma);
  w.F64(m.lambda);
  w.F64(m.work_per_core_hour);
}

void EncodeBody(WireWriter& w, const AllocationRequestMsg& m) {
  w.Str(m.zone);
  w.Str(m.instance_type);
  w.I32(m.count);
  w.F64(m.bid);
}

void EncodeBody(WireWriter& w, const AllocationGrantMsg& m) {
  w.I32(m.allocation);
  w.I32Array(m.node_ids);
  w.I32(m.vcpus_per_node);
}

void EncodeBody(WireWriter& w, const EvictionNoticeMsg& m) {
  w.I32(m.allocation);
  w.I32Array(m.node_ids);
  w.F64(m.warning_seconds);
}

void EncodeBody(WireWriter& w, const ReadParamMsg& m) {
  w.I32(m.table);
  w.I64(m.row);
}

void EncodeBody(WireWriter& w, const ParamValueMsg& m) {
  w.I32(m.table);
  w.I64(m.row);
  w.FloatArray(m.value);
}

void EncodeBody(WireWriter& w, const UpdateParamMsg& m) {
  w.I32(m.table);
  w.I64(m.row);
  w.FloatArray(m.delta);
}

void EncodeBody(WireWriter& w, const WorkerReadyMsg& m) {
  w.I32(m.node_id);
  w.I64(m.items_loaded);
}

void EncodeBody(WireWriter& w, const ReliableFrameMsg& m) {
  w.U32(m.session);
  w.VarU64(m.seq);
  w.VarU64(m.cum_ack);
  w.VarU64(m.sacks.size());
  for (const std::uint64_t sack : m.sacks) {
    w.VarU64(sack);
  }
  w.Blob(m.payload);
}

void EncodeBody(WireWriter& w, const RecoveryNoticeMsg& m) {
  w.I32(m.depth);
  w.I64(m.restored_clock);
  w.I32(m.lost_clocks);
  w.VarU64(m.checkpoint_epoch);
}

template <typename T>
std::optional<Message> Finish(WireReader& r, T&& value) {
  if (r.failed() || !r.AtEnd()) {
    return std::nullopt;  // Truncated or trailing garbage.
  }
  return Message(std::forward<T>(value));
}

std::optional<Message> DecodeBody(MessageType type, WireReader& r) {
  switch (type) {
    case MessageType::kAppCharacteristics: {
      AppCharacteristicsMsg m;
      m.phi = r.F64().value_or(0.0);
      m.sigma = r.F64().value_or(0.0);
      m.lambda = r.F64().value_or(0.0);
      m.work_per_core_hour = r.F64().value_or(0.0);
      return Finish(r, std::move(m));
    }
    case MessageType::kAllocationRequest: {
      AllocationRequestMsg m;
      m.zone = r.Str().value_or("");
      m.instance_type = r.Str().value_or("");
      m.count = r.I32().value_or(0);
      m.bid = r.F64().value_or(0.0);
      return Finish(r, std::move(m));
    }
    case MessageType::kAllocationGrant: {
      AllocationGrantMsg m;
      m.allocation = r.I32().value_or(kInvalidAllocation);
      m.node_ids = r.I32Array().value_or(std::vector<std::int32_t>{});
      m.vcpus_per_node = r.I32().value_or(0);
      return Finish(r, std::move(m));
    }
    case MessageType::kEvictionNotice: {
      EvictionNoticeMsg m;
      m.allocation = r.I32().value_or(kInvalidAllocation);
      m.node_ids = r.I32Array().value_or(std::vector<std::int32_t>{});
      m.warning_seconds = r.F64().value_or(0.0);
      return Finish(r, std::move(m));
    }
    case MessageType::kReadParam: {
      ReadParamMsg m;
      m.table = r.I32().value_or(0);
      m.row = r.I64().value_or(0);
      return Finish(r, std::move(m));
    }
    case MessageType::kParamValue: {
      ParamValueMsg m;
      m.table = r.I32().value_or(0);
      m.row = r.I64().value_or(0);
      m.value = r.FloatArray().value_or(std::vector<float>{});
      return Finish(r, std::move(m));
    }
    case MessageType::kUpdateParam: {
      UpdateParamMsg m;
      m.table = r.I32().value_or(0);
      m.row = r.I64().value_or(0);
      m.delta = r.FloatArray().value_or(std::vector<float>{});
      return Finish(r, std::move(m));
    }
    case MessageType::kWorkerReady: {
      WorkerReadyMsg m;
      m.node_id = r.I32().value_or(kInvalidNode);
      m.items_loaded = r.I64().value_or(0);
      return Finish(r, std::move(m));
    }
    case MessageType::kReliableFrame: {
      ReliableFrameMsg m;
      m.session = r.U32().value_or(0);
      m.seq = r.VarU64().value_or(0);
      m.cum_ack = r.VarU64().value_or(0);
      const std::uint64_t count = r.VarU64().value_or(0);
      if (count > WireReader::kMaxElements) {
        return std::nullopt;  // Hostile length prefix.
      }
      m.sacks.reserve(static_cast<std::size_t>(count));
      for (std::uint64_t i = 0; i < count && !r.failed(); ++i) {
        m.sacks.push_back(r.VarU64().value_or(0));
      }
      m.payload = r.Blob().value_or(std::vector<std::uint8_t>{});
      return Finish(r, std::move(m));
    }
    case MessageType::kRecoveryNotice: {
      RecoveryNoticeMsg m;
      m.depth = r.I32().value_or(0);
      m.restored_clock = r.I64().value_or(0);
      m.lost_clocks = r.I32().value_or(0);
      m.checkpoint_epoch = r.VarU64().value_or(0);
      return Finish(r, std::move(m));
    }
  }
  return std::nullopt;
}

}  // namespace

MessageType TypeOf(const Message& message) {
  struct Visitor {
    MessageType operator()(const AppCharacteristicsMsg&) const {
      return MessageType::kAppCharacteristics;
    }
    MessageType operator()(const AllocationRequestMsg&) const {
      return MessageType::kAllocationRequest;
    }
    MessageType operator()(const AllocationGrantMsg&) const {
      return MessageType::kAllocationGrant;
    }
    MessageType operator()(const EvictionNoticeMsg&) const {
      return MessageType::kEvictionNotice;
    }
    MessageType operator()(const ReadParamMsg&) const { return MessageType::kReadParam; }
    MessageType operator()(const ParamValueMsg&) const { return MessageType::kParamValue; }
    MessageType operator()(const UpdateParamMsg&) const { return MessageType::kUpdateParam; }
    MessageType operator()(const WorkerReadyMsg&) const { return MessageType::kWorkerReady; }
    MessageType operator()(const ReliableFrameMsg&) const {
      return MessageType::kReliableFrame;
    }
    MessageType operator()(const RecoveryNoticeMsg&) const {
      return MessageType::kRecoveryNotice;
    }
  };
  return std::visit(Visitor{}, message);
}

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kAppCharacteristics:
      return "app_characteristics";
    case MessageType::kAllocationRequest:
      return "allocation_request";
    case MessageType::kAllocationGrant:
      return "allocation_grant";
    case MessageType::kEvictionNotice:
      return "eviction_notice";
    case MessageType::kReadParam:
      return "read_param";
    case MessageType::kParamValue:
      return "param_value";
    case MessageType::kUpdateParam:
      return "update_param";
    case MessageType::kWorkerReady:
      return "worker_ready";
    case MessageType::kReliableFrame:
      return "reliable_frame";
    case MessageType::kRecoveryNotice:
      return "recovery_notice";
  }
  return "unknown";
}

std::vector<std::uint8_t> EncodeMessage(const Message& message) {
  WireWriter w;
  w.U8(static_cast<std::uint8_t>(TypeOf(message)));
  std::visit([&w](const auto& m) { EncodeBody(w, m); }, message);
  return w.Take();
}

std::optional<Message> DecodeMessage(std::span<const std::uint8_t> frame) {
  WireReader r(frame);
  const auto tag = r.U8();
  if (!tag.has_value() || *tag < 1 ||
      *tag > static_cast<std::uint8_t>(MessageType::kRecoveryNotice)) {
    return std::nullopt;
  }
  return DecodeBody(static_cast<MessageType>(*tag), r);
}

}  // namespace proteus
