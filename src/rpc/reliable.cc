#include "src/rpc/reliable.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/logging.h"

namespace proteus {

namespace {

// Retransmission timeout schedule (virtual seconds): attempt k waits
// kInitialRto * kBackoff^(k-1), capped at kMaxRto, then scaled by a
// seeded jitter factor uniform in [1 - kJitter, 1 + kJitter].
constexpr double kInitialRto = 0.05;
constexpr double kMaxRto = 2.0;
constexpr double kBackoff = 2.0;
constexpr double kJitter = 0.1;
static_assert(kInitialRto > 0.0 && kMaxRto >= kInitialRto && kBackoff >= 1.0);
static_assert(kJitter >= 0.0 && kJitter < 1.0);
// Cap on selective-ack entries per ack frame.
constexpr int kMaxSacks = 16;
static_assert(kMaxSacks >= 0);

}  // namespace

ReliableChannel::ReliableChannel(Channel* data, Channel* ack, ReliableChannelConfig config)
    : data_(data), ack_(ack), config_(config), rng_(config.seed) {
  PROTEUS_CHECK(data_ != nullptr);
  PROTEUS_CHECK(ack_ != nullptr);
  PROTEUS_CHECK_GE(config_.window, 1);
  BindMetrics();
}

void ReliableChannel::Send(const Message& message, double now) {
  ++messages_accepted_;
  backlog_.push_back(EncodeMessage(message));
  RefillWindow(now);
}

void ReliableChannel::RefillWindow(double now) {
  while (!backlog_.empty() &&
         in_flight_.size() < static_cast<std::size_t>(config_.window)) {
    const std::uint64_t seq = next_seq_++;
    InFlight entry;
    entry.payload = std::move(backlog_.front());
    backlog_.pop_front();
    entry.attempts = 1;
    entry.first_sent = now;
    entry.next_retx = now + NextTimeout(1);
    entry.send_event = obs_.Event("rpc.send.reliable", "rpc", now,
                                  {{"channel", name_},
                                   {"seq", static_cast<std::int64_t>(seq)},
                                   {"bytes", static_cast<std::int64_t>(entry.payload.size())}});
    SendDataFrame(seq, entry);
    in_flight_.emplace(seq, std::move(entry));
  }
}

double ReliableChannel::NextTimeout(int attempts) {
  double rto = kInitialRto * std::pow(kBackoff, attempts - 1);
  rto = std::min(rto, kMaxRto);
  // Seeded jitter keeps simultaneous sessions from retransmitting in
  // lockstep while staying replayable: the draw order is a pure
  // function of the (seeded) event sequence.
  return rto * rng_.Uniform(1.0 - kJitter, 1.0 + kJitter);
}

void ReliableChannel::SendDataFrame(std::uint64_t seq, const InFlight& entry) {
  ReliableFrameMsg frame;
  frame.session = config_.session;
  frame.seq = seq;
  frame.payload = entry.payload;
  data_->Send(frame);
}

void ReliableChannel::SendAckFrame() {
  ReliableFrameMsg frame;
  frame.session = config_.session;
  frame.seq = 0;  // Pure ack.
  frame.cum_ack = received_up_to_;
  for (const auto& [seq, payload] : out_of_order_) {
    if (static_cast<int>(frame.sacks.size()) >= kMaxSacks) {
      break;
    }
    frame.sacks.push_back(seq);
  }
  ack_->Send(frame);
}

std::optional<Message> ReliableChannel::Receive(double now) {
  while (auto message = data_->Poll()) {
    if (auto* frame = std::get_if<ReliableFrameMsg>(&*message)) {
      if (frame->session == config_.session && frame->seq > 0) {
        AcceptData(std::move(*frame), now);
      }
      // Wrong-session frames and stray acks on the data path are
      // ignored: they belong to nobody.
      continue;
    }
    // Non-reliable traffic passes through untouched.
    deliverable_.push_back(std::move(*message));
  }
  if (deliverable_.empty()) {
    return std::nullopt;
  }
  Message next = std::move(deliverable_.front());
  deliverable_.pop_front();
  ++messages_delivered_;
  return next;
}

void ReliableChannel::AcceptData(ReliableFrameMsg frame, double now) {
  const std::uint64_t seq = frame.seq;
  if (seq <= received_up_to_ || out_of_order_.count(seq) > 0) {
    ++dup_suppressed_;
    dup_suppressed_counter_->Increment();
    obs_.Event("rpc.dup_suppressed", "rpc", now,
               {{"channel", name_}, {"seq", static_cast<std::int64_t>(seq)}});
    // Re-ack so the sender learns this frame landed even if the
    // original ack was lost.
    SendAckFrame();
    return;
  }
  out_of_order_.emplace(seq, std::move(frame.payload));
  // Release the in-order prefix.
  while (true) {
    auto it = out_of_order_.find(received_up_to_ + 1);
    if (it == out_of_order_.end()) {
      break;
    }
    auto decoded = DecodeMessage(it->second);
    PROTEUS_CHECK(decoded.has_value()) << "undecodable reliable payload";
    deliverable_.push_back(std::move(*decoded));
    out_of_order_.erase(it);
    ++received_up_to_;
  }
  SendAckFrame();
}

void ReliableChannel::Tick(double now) {
  while (auto message = ack_->Poll()) {
    if (auto* frame = std::get_if<ReliableFrameMsg>(&*message)) {
      if (frame->session == config_.session && frame->seq == 0) {
        HandleAck(*frame, now);
      }
    }
  }
  RefillWindow(now);
  for (auto& [seq, entry] : in_flight_) {
    if (entry.next_retx > now) {
      continue;
    }
    ++entry.attempts;
    ++retransmits_;
    retransmit_log_.push_back({seq, entry.attempts, now});
    retransmits_counter_->Increment();
    obs_.EventWithParent("rpc.retransmit", "rpc", now, entry.send_event,
                         {{"channel", name_},
                          {"seq", static_cast<std::int64_t>(seq)},
                          {"attempt", static_cast<std::int64_t>(entry.attempts)}});
    entry.next_retx = now + NextTimeout(entry.attempts);
    SendDataFrame(seq, entry);
  }
}

void ReliableChannel::HandleAck(const ReliableFrameMsg& frame, double now) {
  cum_acked_ = std::max(cum_acked_, frame.cum_ack);
  auto ack_one = [&](std::uint64_t seq) {
    auto it = in_flight_.find(seq);
    if (it == in_flight_.end()) {
      return;
    }
    // Karn's rule: only first-attempt acks yield unambiguous RTT
    // samples.
    if (it->second.attempts == 1) {
      ack_rtt_hist_->Observe(now - it->second.first_sent);
    }
    obs_.EventWithParent("rpc.delivery", "rpc", now, it->second.send_event,
                         {{"channel", name_},
                          {"seq", static_cast<std::int64_t>(seq)},
                          {"attempts", static_cast<std::int64_t>(it->second.attempts)},
                          {"rtt", now - it->second.first_sent}});
    in_flight_.erase(it);
  };
  while (!in_flight_.empty() && in_flight_.begin()->first <= frame.cum_ack) {
    ack_one(in_flight_.begin()->first);
  }
  for (const std::uint64_t seq : frame.sacks) {
    ack_one(seq);
  }
  RefillWindow(now);
}

bool ReliableChannel::Quiescent() const {
  return in_flight_.empty() && backlog_.empty() && deliverable_.empty();
}

void ReliableChannel::SetLedger(obs::EventLedger* ledger, const std::string& name) {
  obs_.SetLedger(ledger);
  name_ = name;
}

void ReliableChannel::SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics,
                                       const std::string& name) {
  obs_.SetTracer(tracer);
  obs_.SetMetrics(metrics);
  name_ = name;
  BindMetrics();
}

void ReliableChannel::BindMetrics() {
  const obs::Labels labels = {{"channel", name_}};
  retransmits_counter_ = obs_.GetCounter("rpc.retransmits", labels);
  dup_suppressed_counter_ = obs_.GetCounter("rpc.dup_delivered_suppressed", labels);
  ack_rtt_hist_ = obs_.GetHistogram(
      "rpc.ack_rtt", {0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0}, labels);
}

}  // namespace proteus
