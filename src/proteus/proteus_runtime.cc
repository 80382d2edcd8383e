#include "src/proteus/proteus_runtime.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/logging.h"

namespace proteus {

namespace {

// BidBrain's decision cadence (§5: every two minutes).
constexpr SimDuration kDecisionPeriod = 2 * kMinute;

}  // namespace

ProteusRuntime::ProteusRuntime(MLApp* app, const InstanceTypeCatalog* catalog,
                               const TraceStore* traces, const EvictionModel* estimator,
                               ProteusConfig config, SimTime start)
    : app_(app),
      catalog_(catalog),
      config_(std::move(config)),
      market_(*catalog, *traces),
      bidbrain_(catalog, traces, estimator, config_.bidbrain),
      rng_(config_.seed),
      start_(start),
      now_(start),
      next_decision_(start) {
  PROTEUS_CHECK(app_ != nullptr);
  if (config_.silent_failure_fraction > 0) {
    PROTEUS_CHECK(config_.agileml.detector.enabled)
        << "silent failures need the heartbeat detector to be caught";
  }
  if (config_.serverless_target > 0) {
    PROTEUS_CHECK(config_.agileml.detector.enabled)
        << "the serverless tier gives zero eviction warning; only the "
           "heartbeat detector can catch its losses";
    serverless_ = std::make_unique<ServerlessTier>(config_.serverless);
  }
  if (config_.on_demand_zone.empty()) {
    config_.on_demand_zone = traces->Keys().front().zone;
  }
  // Reliable tier: on-demand instances acquired up front, never released.
  const InstanceType& od_type = catalog_->Get(config_.on_demand_type);
  on_demand_allocation_ = market_.RequestOnDemand(
      {config_.on_demand_zone, config_.on_demand_type}, config_.on_demand_count, now_);
  std::vector<NodeInfo> reliable;
  for (int i = 0; i < config_.on_demand_count; ++i) {
    reliable.push_back({next_node_id_++, Tier::kReliable, od_type.vcpus, on_demand_allocation_});
  }
  agileml_ = std::make_unique<AgileMLRuntime>(app_, config_.agileml, reliable);
  // "Proteus connects AgileML to BidBrain via a ZMQ message that
  // specifies the application characteristics" (§5).
  controller_channel_.Send(Message(AppCharacteristicsMsg{
      config_.bidbrain.app.phi, config_.bidbrain.app.sigma, config_.bidbrain.app.lambda,
      static_cast<double>(od_type.vcpus)}));
  BindMetrics();
}

ProteusRuntime::~ProteusRuntime() = default;

void ProteusRuntime::SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  obs_.SetTracer(tracer);
  obs_.SetMetrics(metrics);
  BindMetrics();
  agileml_->SetObservability(tracer, metrics);
  bidbrain_.SetObservability(tracer, metrics);
  api_channel_.SetObservability(metrics, "api");
  controller_channel_.SetObservability(metrics, "controller");
}

void ProteusRuntime::SetLedger(obs::EventLedger* ledger) {
  obs_.SetLedger(ledger);
  agileml_->SetLedger(ledger);
  api_channel_.SetLedger(ledger, "api");
  controller_channel_.SetLedger(ledger, "controller");
}

void ProteusRuntime::BindMetrics() {
  total_cost_gauge_ = obs_.GetGauge("proteus.cost.dollars");
  acquisitions_counter_ = obs_.GetCounter("proteus.allocations", {{"event", "acquired"}});
  evictions_counter_ = obs_.GetCounter("proteus.allocations", {{"event", "evicted"}});
  failures_counter_ = obs_.GetCounter("proteus.allocations", {{"event", "failed"}});
  aborted_counter_ = obs_.GetCounter("proteus.allocations", {{"event", "aborted"}});
}

void ProteusRuntime::RecordAllocEvent(const char* event, const TrackedAllocation& tracked,
                                      obs::TraceArgs extra) {
  const Allocation& alloc = market_.Get(tracked.id);
  obs::TraceArgs args = {{"alloc", static_cast<std::int64_t>(tracked.id)},
                         {"market", alloc.market.zone + "/" + alloc.market.instance_type},
                         {"count", static_cast<std::int64_t>(alloc.count)}};
  for (auto& kv : extra) {
    args.push_back(std::move(kv));
  }
  obs_.Event(std::string("alloc.") + event, "proteus", now_, std::move(args));
}

void ProteusRuntime::UpdateCostGauges() {
  const Money serverless_cost =
      serverless_ != nullptr ? serverless_->TotalBill(now_) : 0.0;
  const Money market_cost = ComputeTotalJobBill(market_, now_).cost;
  const Money total = market_cost + serverless_cost;
  obs_.Event("cost.sample", "proteus", now_, {{"dollars", total}});
  obs_.Sample(now_, "cost_dollars", "proteus", total);
  total_cost_gauge_->Set(total);
  // Per-tier cost attribution (the tab_* benches and proteus_analyze
  // read these to attribute damage and spend by reliability tier).
  const Money reliable_cost = ComputeJobBill(market_, on_demand_allocation_, now_).cost;
  obs_.GetGauge("proteus.tier.cost", {{"tier", "reliable"}})->Set(reliable_cost);
  obs_.GetGauge("proteus.tier.cost", {{"tier", "transient"}})->Set(market_cost - reliable_cost);
  obs_.GetGauge("proteus.tier.cost", {{"tier", "serverless"}})->Set(serverless_cost);
  // Per-allocation accumulated cost (the reliable tier is one gauge
  // too). Ended allocations keep their final bill; ids restart at 0
  // every run, so the label cardinality stays bounded.
  for (const Allocation& alloc : market_.allocations()) {
    obs_.GetGauge("proteus.alloc.cost", {{"alloc", std::to_string(alloc.id)}})
        ->Set(ComputeJobBill(market_, alloc.id, now_).cost);
  }
}

std::vector<LiveAllocation> ProteusRuntime::LiveView() const {
  std::vector<LiveAllocation> view;
  const Allocation& od = market_.Get(on_demand_allocation_);
  view.push_back({od.id, od.market, od.count, od.bid, /*on_demand=*/true, od.start});
  for (const auto& [id, tracked] : live_) {
    const Allocation& alloc = market_.Get(id);
    if (alloc.running() && !tracked.terminating) {
      view.push_back({alloc.id, alloc.market, alloc.count, alloc.bid, false, alloc.start});
    }
  }
  return view;
}

void ProteusRuntime::RunDecisionPoint() {
  for (const BidAction& action : bidbrain_.Decide(now_, LiveView())) {
    if (action.kind == BidAction::Kind::kAcquire) {
      api_channel_.Send(Message(AllocationRequestMsg{
          action.market.zone, action.market.instance_type, action.count, action.bid}));
      const auto id = market_.RequestSpot(action.market, action.count, action.bid, now_);
      if (!id.has_value()) {
        continue;  // Price moved above the bid; retry next decision.
      }
      const InstanceType& type = catalog_->Get(action.market.instance_type);
      TrackedAllocation tracked;
      tracked.id = *id;
      std::vector<NodeInfo> nodes;
      for (int i = 0; i < action.count; ++i) {
        const NodeId node = next_node_id_++;
        tracked.nodes.push_back(node);
        nodes.push_back({node, Tier::kTransient, type.vcpus, *id});
      }
      // BidBrain forwards the grant (instance "IP addresses and sizes",
      // §5) to the elasticity controller.
      controller_channel_.Send(
          Message(AllocationGrantMsg{*id, tracked.nodes, type.vcpus}));
      agileml_->AddNodes(nodes);  // Background preload, then join (§3.3).
      const AllocationId alloc_id = *id;
      live_[alloc_id] = std::move(tracked);
      ++acquisitions_;
      acquisitions_counter_->Increment();
      RecordAllocEvent("bid", live_[alloc_id], {{"bid", action.bid}});
    } else {
      auto it = live_.find(action.target);
      if (it != live_.end() && !it->second.terminating) {
        it->second.terminating = true;
        it->second.terminate_at = market_.Get(action.target).HourEnd(now_) - 1.0;
        RecordAllocEvent("terminate.scheduled", it->second,
                         {{"at", it->second.terminate_at}});
      }
    }
  }
  if (serverless_ != nullptr) {
    RunServerlessAcquisition();
  }
}

void ProteusRuntime::RecordServerlessEvent(const char* event,
                                           const TrackedServerless& tracked,
                                           obs::TraceArgs extra) {
  const ServerlessAllocation& alloc = serverless_->Get(tracked.id);
  obs::TraceArgs args = {{"alloc", static_cast<std::int64_t>(tracked.id)},
                         {"market", std::string("serverless")},
                         {"count", static_cast<std::int64_t>(alloc.count)}};
  for (auto& kv : extra) {
    args.push_back(std::move(kv));
  }
  obs_.Event(std::string("serverless.") + event, "proteus", now_, std::move(args));
}

void ProteusRuntime::RunServerlessAcquisition() {
  // Enrolled = every node on a live serverless allocation that has not
  // yet been revoked; pending = the subset still preloading.
  int enrolled = 0;
  int pending = 0;
  for (const auto& [id, tracked] : serverless_live_) {
    if (tracked.revoked) {
      continue;
    }
    for (const NodeId node : tracked.nodes) {
      if (agileml_->IsReadyNode(node)) {
        ++enrolled;
      } else if (agileml_->IsPreparingNode(node)) {
        ++enrolled;
        ++pending;
      }
    }
  }
  int want = config_.serverless_target - enrolled;
  if (want <= 0) {
    return;
  }
  // The TierGuard bounds how much of the worker pool the zero-warning
  // tier may hold; never admit past the exposure bound.
  want = std::min(
      want, agileml_->tier_guard().AdmissionHeadroom(agileml_->ReadyTierCounts(), pending));
  const int chunk = std::max(1, config_.serverless_nodes_per_allocation);
  while (want > 0) {
    const int count = std::min(want, chunk);
    const auto id = serverless_->Request(count, now_);
    if (!id.has_value()) {
      break;  // Pool capacity squeezed below our claim; retry next decision.
    }
    TrackedServerless tracked;
    tracked.id = *id;
    std::vector<NodeInfo> nodes;
    for (int i = 0; i < count; ++i) {
      const NodeId node = next_node_id_++;
      tracked.nodes.push_back(node);
      // Burstable slots are small: two vcpus apiece. The allocation id
      // lives in the serverless id space, not the market's.
      nodes.push_back({node, Tier::kServerless, 2, kInvalidAllocation});
    }
    controller_channel_.Send(Message(AllocationGrantMsg{*id, tracked.nodes, 2}));
    agileml_->AddNodes(nodes);  // Background preload, then join (§3.3).
    const AllocationId alloc_id = *id;
    serverless_live_[alloc_id] = std::move(tracked);
    ++acquisitions_;
    ++serverless_acquisitions_;
    acquisitions_counter_->Increment();
    RecordServerlessEvent("acquired", serverless_live_[alloc_id]);
    want -= count;
  }
}

void ProteusRuntime::ProcessServerlessEventsUntil(SimTime until) {
  if (serverless_ == nullptr) {
    return;
  }
  for (auto it = serverless_live_.begin(); it != serverless_live_.end();) {
    TrackedServerless& tracked = it->second;
    const ServerlessAllocation& alloc = serverless_->Get(tracked.id);
    bool erase = false;
    if (alloc.running() && !tracked.revoked && alloc.revocation_time <= until) {
      // Zero warning, always: the provider reclaims the slots with no
      // notice of any kind. There is no warned path here by design —
      // every serverless loss flows through the silent-failure →
      // detector-confirmed pipeline.
      serverless_->MarkRevoked(tracked.id);
      std::vector<NodeId> ready;
      std::vector<NodeId> preloading;
      for (const NodeId node : tracked.nodes) {
        (agileml_->IsReadyNode(node) ? ready : preloading).push_back(node);
      }
      if (ready.empty()) {
        // Never incorporated: the preload is simply abandoned.
        agileml_->Evict(tracked.nodes);
        ++aborted_preloads_;
        aborted_counter_->Increment();
        RecordServerlessEvent("aborted", tracked,
                              {{"cause", std::string(ServerlessRevocationCauseName(
                                    alloc.revocation_cause))}});
        erase = true;
      } else {
        if (!preloading.empty()) {
          agileml_->Evict(preloading);  // Discards the still-preparing nodes.
        }
        for (const NodeId node : ready) {
          agileml_->SetNodeRevoked(node);
        }
        tracked.revoked = true;
        RecordServerlessEvent("revoked.silent", tracked,
                              {{"cause", std::string(ServerlessRevocationCauseName(
                                    alloc.revocation_cause))}});
      }
      next_decision_ = until;  // React immediately (§5).
    }
    it = erase ? serverless_live_.erase(it) : ++it;
  }
}

void ProteusRuntime::HandleEviction(TrackedAllocation& tracked, bool warned) {
  // "Upon receiving an eviction notification, BidBrain translates it to
  // the ids of the resources ... and notifies AgileML's elasticity
  // controller" (§5).
  controller_channel_.Send(Message(EvictionNoticeMsg{
      tracked.id, tracked.nodes, warned ? kEvictionWarning : 0.0}));
  // An allocation revoked while all of its nodes are still preloading
  // (never incorporated) is neither an eviction nor a failure: no roles
  // move, no clocks are lost, and the preload is simply abandoned.
  bool any_incorporated = false;
  for (const NodeId id : tracked.nodes) {
    if (agileml_->IsReadyNode(id)) {
      any_incorporated = true;
      break;
    }
  }
  if (!any_incorporated) {
    agileml_->Evict(tracked.nodes);  // Discards the preparing nodes.
    ++aborted_preloads_;
    aborted_counter_->Increment();
    RecordAllocEvent("aborted", tracked);
    PROTEUS_LOG(Debug) << "allocation " << tracked.id
                       << " revoked before incorporation; preload abandoned";
    return;
  }
  if (warned) {
    agileml_->Evict(tracked.nodes);
    ++evictions_;
    evictions_counter_->Increment();
    RecordAllocEvent("evicted", tracked);
  } else {
    const int lost = agileml_->Fail(tracked.nodes);
    transient_lost_clocks_ += lost;
    ++failures_;
    failures_counter_->Increment();
    RecordAllocEvent("failed", tracked, {{"lost_clocks", static_cast<std::int64_t>(lost)}});
    PROTEUS_LOG(Debug) << "effective failure: lost " << lost << " clocks";
  }
}

void ProteusRuntime::ProcessMarketEventsUntil(SimTime until) {
  // The paper's elasticity controller polls for warnings every 5 seconds
  // (§3.3); with sub-minute training clocks, checking once per event
  // window is equivalent — warnings give two minutes of slack.
  for (auto it = live_.begin(); it != live_.end();) {
    TrackedAllocation& tracked = it->second;
    const Allocation& alloc = market_.Get(tracked.id);
    bool erase = false;
    if (alloc.running() && tracked.terminating && tracked.terminate_at <= until) {
      // Planned termination just before the billing hour renews.
      market_.Terminate(tracked.id, std::max(now_, tracked.terminate_at));
      agileml_->Evict(tracked.nodes);
      RecordAllocEvent("terminated", tracked);
      erase = true;
    } else if (alloc.running() && alloc.eviction_time.has_value()) {
      const SimTime warning = *market_.WarningTime(tracked.id);
      if (!tracked.warned && warning <= until &&
          rng_.Bernoulli(1.0 - config_.effective_failure_fraction)) {
        // Warning observed at the next poll: graceful scale-down now.
        tracked.warned = true;
        market_.MarkEvicted(tracked.id);
        HandleEviction(tracked, /*warned=*/true);
        erase = true;
        next_decision_ = until;  // React immediately (§5).
      } else if (*alloc.eviction_time <= until) {
        // The warning was missed (or suppressed): effective failure.
        market_.MarkEvicted(tracked.id);
        bool all_ready = !tracked.nodes.empty();
        for (const NodeId node : tracked.nodes) {
          all_ready = all_ready && agileml_->IsReadyNode(node);
        }
        if (config_.silent_failure_fraction > 0 &&
            agileml_->failure_detector().config().enabled && all_ready &&
            rng_.Bernoulli(config_.silent_failure_fraction)) {
          // Silent termination: no notice is ever sent. The nodes stop
          // heartbeating (compute keeps running against dead state) and
          // the allocation stays tracked until the detector confirms
          // the death inside a later RunClock (see Step()).
          for (const NodeId node : tracked.nodes) {
            agileml_->SetNodeSilent(node, true);
          }
          tracked.silenced = true;
          RecordAllocEvent("failed.silent", tracked);
        } else {
          HandleEviction(tracked, /*warned=*/false);
          erase = true;
        }
        next_decision_ = until;
      }
    }
    it = erase ? live_.erase(it) : ++it;
  }
}

void ProteusRuntime::Step() {
  if (now_ >= next_decision_) {
    RunDecisionPoint();
    next_decision_ = now_ + kDecisionPeriod;
  }
  const int lost_before = agileml_->lost_clocks_total();
  const IterationReport report = agileml_->RunClock();
  bool serverless_confirmed = false;
  bool transient_confirmed = false;
  if (!report.confirmed_dead.empty()) {
    const auto confirmed_contains = [&report](NodeId node) {
      return std::find(report.confirmed_dead.begin(), report.confirmed_dead.end(),
                       node) != report.confirmed_dead.end();
    };
    // Zero-warning serverless revocations resolve here: the detector
    // confirmed the revoked nodes dead and the runtime rolled back.
    for (auto it = serverless_live_.begin(); it != serverless_live_.end();) {
      TrackedServerless& tracked = it->second;
      if (tracked.revoked &&
          std::any_of(tracked.nodes.begin(), tracked.nodes.end(), confirmed_contains)) {
        serverless_confirmed = true;
        ++failures_;
        ++silent_failures_;
        ++serverless_losses_;
        failures_counter_->Increment();
        RecordServerlessEvent("failed.confirmed", tracked,
                              {{"clock", static_cast<std::int64_t>(agileml_->clock())}});
        it = serverless_live_.erase(it);
      } else {
        ++it;
      }
    }
    // The detector confirmed silenced nodes dead and the runtime already
    // rolled back; account the allocation as a (silent) failure now.
    for (auto it = live_.begin(); it != live_.end();) {
      TrackedAllocation& tracked = it->second;
      const bool confirmed =
          tracked.silenced &&
          std::any_of(tracked.nodes.begin(), tracked.nodes.end(),
                      [&report](NodeId node) {
                        return std::find(report.confirmed_dead.begin(),
                                         report.confirmed_dead.end(),
                                         node) != report.confirmed_dead.end();
                      });
      if (confirmed) {
        transient_confirmed = true;
        ++failures_;
        ++silent_failures_;
        failures_counter_->Increment();
        RecordAllocEvent("failed.confirmed", tracked,
                         {{"clock", static_cast<std::int64_t>(agileml_->clock())}});
        it = live_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Attribute the clocks this confirmation's rollback cost to the tier
  // whose loss triggered it (serverless wins a mixed batch: the rollback
  // depth is set by the zero-warning victims' unconfirmed window).
  const int lost_delta = agileml_->lost_clocks_total() - lost_before;
  if (lost_delta > 0) {
    if (serverless_confirmed) {
      serverless_lost_clocks_ += lost_delta;
    } else if (transient_confirmed) {
      transient_lost_clocks_ += lost_delta;
    }
  }
  if (config_.checkpoint_every > 0 &&
      agileml_->clock() % config_.checkpoint_every == 0) {
    agileml_->CheckpointReliable();
  }
  const SimTime clock_end = now_ + report.duration;
  ProcessMarketEventsUntil(clock_end);
  ProcessServerlessEventsUntil(clock_end);
  now_ = clock_end;
  // Preloads that completed during this clock turn the allocation active.
  for (auto& [id, tracked] : live_) {
    if (tracked.active) {
      continue;
    }
    for (const NodeId node : tracked.nodes) {
      if (agileml_->IsReadyNode(node)) {
        tracked.active = true;
        RecordAllocEvent("active", tracked,
                         {{"clock", static_cast<std::int64_t>(agileml_->clock())}});
        break;
      }
    }
  }
  for (auto& [id, tracked] : serverless_live_) {
    if (tracked.active || tracked.revoked) {
      continue;
    }
    for (const NodeId node : tracked.nodes) {
      if (agileml_->IsReadyNode(node)) {
        tracked.active = true;
        RecordServerlessEvent("active", tracked,
                              {{"clock", static_cast<std::int64_t>(agileml_->clock())}});
        break;
      }
    }
  }
  UpdateCostGauges();
}

ProteusRunSummary ProteusRuntime::Train(int target_clock) {
  ProteusRunSummary summary;
  int safety = target_clock * 10 + 100;  // Rollbacks re-run clocks; bound the loop.
  while (agileml_->clock() < target_clock && safety-- > 0) {
    Step();
    if (config_.objective_every > 0 && agileml_->clock() % config_.objective_every == 0) {
      summary.objective_trace.push_back(agileml_->ComputeObjective());
    }
  }
  summary.clocks = static_cast<int>(agileml_->clock());
  summary.runtime = now_ - start_;
  summary.bill = ComputeTotalJobBill(market_, now_);
  // Per-tier breakdown: the market bill splits reliable (the up-front
  // on-demand allocation) from transient (everything else); serverless
  // slots bill outside the market and fold into the total.
  summary.tier_reliable.cost = ComputeJobBill(market_, on_demand_allocation_, now_).cost;
  summary.tier_transient.cost = summary.bill.cost - summary.tier_reliable.cost;
  summary.tier_transient.evictions = evictions_ + (failures_ - serverless_losses_);
  summary.tier_transient.warned_losses = evictions_;
  summary.tier_transient.silent_losses = silent_failures_ - serverless_losses_;
  summary.tier_transient.lost_clocks = transient_lost_clocks_;
  if (serverless_ != nullptr) {
    summary.tier_serverless.cost = serverless_->TotalBill(now_);
    summary.bill.cost += summary.tier_serverless.cost;
    summary.tier_serverless.evictions = serverless_losses_;
    summary.tier_serverless.silent_losses = serverless_losses_;  // All of them, by design.
    summary.tier_serverless.lost_clocks = serverless_lost_clocks_;
  }
  summary.serverless_acquisitions = serverless_acquisitions_;
  summary.evictions = evictions_;
  summary.failures = failures_;
  summary.silent_failures = silent_failures_;
  summary.acquisitions = acquisitions_;
  summary.aborted_preloads = aborted_preloads_;
  summary.lost_clocks = agileml_->lost_clocks_total();
  summary.final_objective = agileml_->ComputeObjective();
  summary.checkpoint_bytes_written = agileml_->checkpoint_bytes_written_total();
  summary.checkpoint_bytes_restored = agileml_->checkpoint_bytes_restored_total();
  summary.restore_clocks_lost = agileml_->restore_clocks_lost_total();
  return summary;
}

ProteusStatus ProteusRuntime::Status() const {
  ProteusStatus status;
  status.clock = agileml_->clock();
  status.now = now_;
  status.virtual_time = agileml_->total_time();
  const TierCounts counts = agileml_->ReadyTierCounts();
  status.transient_nodes = counts.transient + agileml_->PreparingCount();
  int serverless_preparing = 0;
  for (const auto& [id, tracked] : serverless_live_) {
    for (const NodeId node : tracked.nodes) {
      if (agileml_->IsPreparingNode(node)) {
        ++serverless_preparing;
      }
    }
  }
  status.serverless_nodes = counts.serverless + serverless_preparing;
  status.transient_nodes -= serverless_preparing;  // PreparingCount() spans tiers.
  status.evictions = evictions_;
  status.failures = failures_;
  status.silent_failures = silent_failures_;
  status.acquisitions = acquisitions_;
  status.aborted_preloads = aborted_preloads_;
  status.lost_clocks = agileml_->lost_clocks_total();
  status.cost_so_far = ComputeTotalJobBill(market_, now_).cost;
  return status;
}

}  // namespace proteus
