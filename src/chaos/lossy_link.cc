#include "src/chaos/lossy_link.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <variant>

#include "src/chaos/scenario.h"
#include "src/chaos/state_digest.h"
#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/rpc/channel.h"
#include "src/rpc/messages.h"
#include "src/rpc/reliable.h"

namespace proteus {

namespace {

// Virtual seconds advanced per pump round; several rounds fit inside
// the reliable channel's initial RTO (50 ms), so retransmissions fire
// within a boundary's pump.
constexpr double kPumpDt = 0.01;
// Pump-round bound per boundary (a reliable link that cannot reach
// quiescence within this many rounds is a bug).
constexpr int kMaxPumpRounds = 10000;

// StateDigest plus the lost-clock count: a lossy link must not cost
// clocks either.
std::uint64_t ModelDigest(const AgileMLRuntime& runtime) {
  return Fnv1aU64(StateDigest(runtime), static_cast<std::uint64_t>(runtime.lost_clocks_total()));
}

bool ProfileIsActive(const LinkFaultProfile& profile) {
  return profile.drop_permille > 0 || profile.delay_permille > 0 ||
         profile.dup_permille > 0 ||
         (profile.blackhole_every > 0 && profile.blackhole_len > 0);
}

class LossyLinkDriver {
 public:
  LossyLinkDriver(MLApp* app, const LossyLinkConfig& config, obs::Tracer* tracer,
                  obs::MetricsRegistry* metrics)
      : config_(config),
        gen_rng_(config.seed ^ 0xB1DB7A1ELL) {
    PROTEUS_CHECK(app != nullptr);
    PROTEUS_CHECK_GE(config_.horizon, 1);

    // Initial membership joins out of band (job start predates the
    // link); the generator and controller start in agreement on it.
    const std::vector<NodeInfo> nodes = InitialNodes();
    for (const NodeInfo& node : nodes) {
      ++next_node_;
      if (node.reliable()) {
        continue;
      }
      intended_[node.allocation].push_back(node.id);
      live_nodes_.insert(node.id);
      seen_allocations_.insert(node.allocation);
      next_allocation_ = node.allocation + 1;
    }
    runtime_ = std::make_unique<AgileMLRuntime>(app, config_.agileml, nodes);
    auditor_ = std::make_unique<ConsistencyAuditor>(runtime_.get());

    if (ProfileIsActive(config_.link)) {
      // Hook-minting injector; its schedule is unused (events = 0).
      FaultScheduleConfig schedule;
      schedule.events = 0;
      hook_source_ = std::make_unique<FaultInjector>(config_.seed, schedule);
      data_channel_.SetFaultHook(hook_source_->MakeLinkFaultHook(config_.link));
      ack_channel_.SetFaultHook(hook_source_->MakeLinkFaultHook(config_.link));
    }
    if (config_.reliable) {
      ReliableChannelConfig rc;
      rc.seed = config_.seed;
      reliable_ = std::make_unique<ReliableChannel>(&data_channel_, &ack_channel_, rc);
    }
    runtime_->SetObservability(tracer, metrics);
    auditor_->SetObservability(tracer, metrics);
    data_channel_.SetObservability(metrics, "lossy-link");
    if (reliable_ != nullptr) {
      reliable_->SetObservability(tracer, metrics, "lossy-link");
    }
  }

  LossyLinkResult Run() {
    for (Clock boundary = 0; boundary < config_.horizon; ++boundary) {
      if (config_.command_every > 0 && boundary > 0 &&
          boundary % config_.command_every == 0) {
        IssueCommand();
      }
      PumpLink();
      runtime_->RunClock();
      auditor_->ObserveChannel(data_channel_, "lossy-link.data");
      auditor_->ObserveChannel(ack_channel_, "lossy-link.ack");
      auditor_->ObserveClock();
    }

    result_.final_clock = runtime_->clock();
    result_.lost_clocks_total = runtime_->lost_clocks_total();
    result_.model_digest = ModelDigest(*runtime_);
    result_.link_dropped = data_channel_.messages_dropped();
    result_.link_duplicated = data_channel_.messages_duplicated();
    result_.link_delayed = data_channel_.messages_delayed();
    if (reliable_ != nullptr) {
      result_.retransmits = reliable_->retransmits();
      result_.dup_suppressed = reliable_->dup_suppressed();
    }
    result_.violations = auditor_->violations();
    return result_;
  }

 private:
  // BidBrain's side. Grant/evict decisions depend only on the seed and
  // the generator's own bookkeeping — never on deliveries — so every
  // transport variant sees the identical command stream.
  void IssueCommand() {
    ++result_.commands_issued;
    const bool grant = intended_.size() <= 1 || gen_rng_.Bernoulli(0.5);
    if (grant) {
      const AllocationId id = next_allocation_++;
      std::vector<std::int32_t> ids;
      for (int i = 0; i < kNodesPerAllocation; ++i) {
        ids.push_back(next_node_++);
      }
      intended_[id] = ids;
      Dispatch(Message(AllocationGrantMsg{id, ids, 8}));
    } else {
      // Revoke the oldest allocation; a quarter of revocations miss
      // their warning (unannounced failure -> rollback on delivery).
      const auto it = intended_.begin();
      const bool warned = !gen_rng_.Bernoulli(0.25);
      Dispatch(Message(
          EvictionNoticeMsg{it->first, it->second, warned ? 2 * kMinute : 0.0}));
      intended_.erase(it);
    }
  }

  void Dispatch(const Message& message) {
    if (reliable_ != nullptr) {
      reliable_->Send(message, link_now_);
    } else {
      data_channel_.Send(message);
    }
  }

  // Moves this boundary's traffic across the link. Reliable mode pumps
  // to quiescence, so every command issued so far is applied before the
  // clock runs — delivery timing is decoupled from the fault pattern.
  // Raw mode polls a fixed number of times and applies whatever
  // survived; drops are simply gone.
  void PumpLink() {
    if (reliable_ != nullptr) {
      int rounds = 0;
      while (!reliable_->Quiescent()) {
        PROTEUS_CHECK_LT(rounds++, kMaxPumpRounds)
            << "reliable link failed to reach quiescence";
        link_now_ += kPumpDt;
        reliable_->Tick(link_now_);
        while (std::optional<Message> m = reliable_->Receive(link_now_)) {
          ApplyCommand(*m);
        }
      }
      while (std::optional<Message> m = reliable_->Receive(link_now_)) {
        ApplyCommand(*m);
      }
    } else {
      for (int i = 0; i < 6; ++i) {
        while (std::optional<Message> m = data_channel_.Poll()) {
          ApplyCommand(*m);
        }
      }
    }
  }

  // The controller's side: apply on delivery, defensively. Duplicate or
  // replayed grants are rejected wholesale; eviction notices act only
  // on nodes this controller actually admitted (a notice for a grant
  // that never arrived must not invent members).
  void ApplyCommand(const Message& message) {
    if (const auto* grant = std::get_if<AllocationGrantMsg>(&message)) {
      if (!seen_allocations_.insert(grant->allocation).second) {
        ++result_.commands_rejected;
        return;
      }
      std::vector<NodeInfo> nodes;
      for (const std::int32_t id : grant->node_ids) {
        nodes.push_back({static_cast<NodeId>(id), Tier::kTransient,
                         grant->vcpus_per_node, grant->allocation});
        live_nodes_.insert(static_cast<NodeId>(id));
      }
      runtime_->AddNodes(nodes);
      ++result_.commands_applied;
      return;
    }
    if (const auto* notice = std::get_if<EvictionNoticeMsg>(&message)) {
      std::vector<NodeId> victims;
      for (const std::int32_t id : notice->node_ids) {
        if (live_nodes_.erase(static_cast<NodeId>(id)) > 0) {
          victims.push_back(static_cast<NodeId>(id));
        }
      }
      if (victims.empty()) {
        ++result_.commands_rejected;
        return;
      }
      if (notice->warning_seconds > 0) {
        runtime_->Evict(victims);
      } else {
        runtime_->Fail(victims);
      }
      ++result_.commands_applied;
      return;
    }
    ++result_.commands_rejected;  // Unexpected type on the command link.
  }

  LossyLinkConfig config_;
  Rng gen_rng_;
  std::unique_ptr<AgileMLRuntime> runtime_;
  std::unique_ptr<ConsistencyAuditor> auditor_;
  std::unique_ptr<FaultInjector> hook_source_;
  Channel data_channel_;
  Channel ack_channel_;
  std::unique_ptr<ReliableChannel> reliable_;
  double link_now_ = 0.0;

  // Generator bookkeeping (sender side).
  AllocationId next_allocation_ = 0;
  NodeId next_node_ = 0;
  std::map<AllocationId, std::vector<std::int32_t>> intended_;

  // Controller bookkeeping (receiver side).
  std::set<AllocationId> seen_allocations_;
  std::set<NodeId> live_nodes_;

  LossyLinkResult result_;
};

}  // namespace

LossyLinkResult RunLossyLink(MLApp* app, const LossyLinkConfig& config,
                             obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  LossyLinkDriver driver(app, config, tracer, metrics);
  return driver.Run();
}

}  // namespace proteus
