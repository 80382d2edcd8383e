// In-process message channel standing in for the ZMQ pair sockets of §5.
// Ordered, thread-safe, with byte/message counters so tests can verify
// control-plane traffic volumes.
//
// For chaos testing the channel accepts a fault hook: every Send() is
// routed through it, and the hook may deliver the frame normally, drop
// it on the floor, or hold it back for a number of Poll() calls
// (delayed frames can be overtaken, modeling reordering), or enqueue
// extra copies (duplication). The counters always satisfy
// messages_sent == delivered + dropped + pending - duplicated_extras,
// which the ConsistencyAuditor checks during chaos soaks.
#ifndef SRC_RPC_CHANNEL_H_
#define SRC_RPC_CHANNEL_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

#include "src/obs/emitter.h"
#include "src/rpc/messages.h"

namespace proteus {

// What the fault hook decided to do with one outgoing message.
struct ChannelFault {
  enum class Action {
    kDeliver,    // Enqueue normally.
    kDrop,       // Lose the frame; it never becomes pending.
    kDelay,      // Enqueue but withhold for `delay_polls` Poll() calls.
    kDuplicate,  // Enqueue `copies` identical frames (copies >= 1).
  };
  Action action = Action::kDeliver;
  int delay_polls = 0;
  int copies = 2;
};

using ChannelFaultHook = std::function<ChannelFault(const Message&)>;

class Channel {
 public:
  Channel();

  // Frames and enqueues the message (subject to the fault hook).
  void Send(const Message& message);

  // Dequeues and decodes the next deliverable message. Returns nullopt
  // when the queue is empty or every pending frame is still delayed;
  // each call ages delayed frames by one poll.
  std::optional<Message> Poll();

  // Installs (or clears, with nullptr) the fault hook.
  void SetFaultHook(ChannelFaultHook hook);

  // Registers per-message-type counters (rpc.messages.sent / .delivered /
  // .dropped / .delayed and rpc.bytes.sent) labeled with this channel's
  // name in `metrics`. Pass nullptr to count into the default registry.
  void SetObservability(obs::MetricsRegistry* metrics, const std::string& name);

  // Attaches the causal event ledger: every Send() records an
  // "rpc.send" event carrying the fault outcome
  // (deliver/drop/delay/dup). The raw channel has no sim clock, so
  // events carry ts 0; causal order is the ledger append order. Pass
  // nullptr to detach.
  void SetLedger(obs::EventLedger* ledger, const std::string& name);

  std::size_t pending() const;
  std::uint64_t messages_sent() const;
  std::uint64_t bytes_sent() const;
  std::uint64_t messages_delivered() const;
  std::uint64_t messages_dropped() const;
  std::uint64_t messages_delayed() const;
  // Extra copies enqueued beyond the original sends (a kDuplicate fault
  // with copies == N adds N - 1 here).
  std::uint64_t messages_duplicated() const;

 private:
  struct Entry {
    std::vector<std::uint8_t> frame;
    MessageType type = MessageType::kAppCharacteristics;
    int delay_polls = 0;
  };

  // Cached counter handles for one outcome, indexed by message type tag.
  struct TypeCounters {
    std::array<obs::Counter*, 16> by_type{};
    obs::Counter* For(MessageType type) { return by_type.at(static_cast<std::size_t>(type)); }
  };

  // Re-resolves every TypeCounters handle against obs_'s registry under
  // name_. Caller holds mu_.
  void BindMetrics();

  mutable std::mutex mu_;
  std::deque<Entry> queue_;
  ChannelFaultHook fault_hook_;
  obs::Emitter obs_;
  std::string name_;  // The "channel" label and ledger arg.
  // Message types without a registered series count here, unread.
  obs::Counter unlisted_;
  TypeCounters sent_counters_;
  TypeCounters bytes_counters_;
  TypeCounters delivered_counters_;
  TypeCounters dropped_counters_;
  TypeCounters delayed_counters_;
  TypeCounters duplicated_counters_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t messages_delayed_ = 0;
  std::uint64_t messages_duplicated_ = 0;
};

}  // namespace proteus

#endif  // SRC_RPC_CHANNEL_H_
