#include "src/rpc/channel.h"

#include <algorithm>

namespace proteus {

Channel::Channel() {
  std::lock_guard<std::mutex> lock(mu_);
  BindMetrics();
}

void Channel::Send(const Message& message) {
  ChannelFault fault;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fault_hook_) {
      fault = fault_hook_(message);
    }
    const MessageType type = TypeOf(message);
    std::vector<std::uint8_t> frame = EncodeMessage(message);
    bytes_sent_ += frame.size();
    ++messages_sent_;
    sent_counters_.For(type)->Increment();
    bytes_counters_.For(type)->Add(frame.size());
    const auto ledger_send = [&](const char* outcome) {
      obs_.Event("rpc.send", "rpc", 0.0,
                 {{"channel", name_},
                  {"type", std::string(MessageTypeName(type))},
                  {"bytes", static_cast<std::int64_t>(frame.size())},
                  {"outcome", std::string(outcome)}});
    };
    switch (fault.action) {
      case ChannelFault::Action::kDrop:
        ++messages_dropped_;
        dropped_counters_.For(type)->Increment();
        ledger_send("drop");
        return;
      case ChannelFault::Action::kDelay:
        ++messages_delayed_;
        delayed_counters_.For(type)->Increment();
        ledger_send("delay");
        queue_.push_back({std::move(frame), type, std::max(0, fault.delay_polls)});
        return;
      case ChannelFault::Action::kDuplicate: {
        const int copies = std::max(1, fault.copies);
        messages_duplicated_ += static_cast<std::uint64_t>(copies - 1);
        duplicated_counters_.For(type)->Add(static_cast<std::uint64_t>(copies - 1));
        ledger_send("dup");
        for (int i = 1; i < copies; ++i) {
          queue_.push_back({frame, type, 0});
        }
        queue_.push_back({std::move(frame), type, 0});
        return;
      }
      case ChannelFault::Action::kDeliver:
        ledger_send("deliver");
        queue_.push_back({std::move(frame), type, 0});
        return;
    }
  }
}

std::optional<Message> Channel::Poll() {
  std::vector<std::uint8_t> frame;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Age every delayed frame by one poll, then deliver the oldest
    // deliverable one (delayed frames can be overtaken: reordering).
    auto ready = queue_.end();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->delay_polls > 0) {
        --it->delay_polls;
      } else if (ready == queue_.end()) {
        ready = it;
      }
    }
    if (ready == queue_.end()) {
      return std::nullopt;
    }
    frame = std::move(ready->frame);
    const MessageType type = ready->type;
    queue_.erase(ready);
    ++messages_delivered_;
    delivered_counters_.For(type)->Increment();
  }
  return DecodeMessage(frame);
}

void Channel::SetObservability(obs::MetricsRegistry* metrics, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  obs_.SetMetrics(metrics);
  name_ = name;
  BindMetrics();
}

void Channel::SetLedger(obs::EventLedger* ledger, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  obs_.SetLedger(ledger);
  name_ = name;
}

void Channel::BindMetrics() {
  constexpr MessageType kAllTypes[] = {
      MessageType::kAppCharacteristics, MessageType::kAllocationRequest,
      MessageType::kAllocationGrant,    MessageType::kEvictionNotice,
      MessageType::kReadParam,          MessageType::kParamValue,
      MessageType::kUpdateParam,        MessageType::kWorkerReady,
      MessageType::kReliableFrame};
  TypeCounters* const all[] = {&sent_counters_,    &bytes_counters_,   &delivered_counters_,
                               &dropped_counters_, &delayed_counters_, &duplicated_counters_};
  for (TypeCounters* counters : all) {
    counters->by_type.fill(&unlisted_);
  }
  for (const MessageType type : kAllTypes) {
    const obs::Labels labels = {{"channel", name_}, {"type", MessageTypeName(type)}};
    const auto idx = static_cast<std::size_t>(type);
    sent_counters_.by_type[idx] = obs_.GetCounter("rpc.messages.sent", labels);
    bytes_counters_.by_type[idx] = obs_.GetCounter("rpc.bytes.sent", labels);
    delivered_counters_.by_type[idx] = obs_.GetCounter("rpc.messages.delivered", labels);
    dropped_counters_.by_type[idx] = obs_.GetCounter("rpc.messages.dropped", labels);
    delayed_counters_.by_type[idx] = obs_.GetCounter("rpc.messages.delayed", labels);
    duplicated_counters_.by_type[idx] = obs_.GetCounter("rpc.messages.duplicated", labels);
  }
}

void Channel::SetFaultHook(ChannelFaultHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_hook_ = std::move(hook);
}

std::size_t Channel::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::uint64_t Channel::messages_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_sent_;
}

std::uint64_t Channel::bytes_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_sent_;
}

std::uint64_t Channel::messages_delivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_delivered_;
}

std::uint64_t Channel::messages_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_dropped_;
}

std::uint64_t Channel::messages_delayed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_delayed_;
}

std::uint64_t Channel::messages_duplicated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_duplicated_;
}

}  // namespace proteus
