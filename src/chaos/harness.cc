#include "src/chaos/harness.h"

#include <algorithm>
#include <bit>

#include "src/chaos/scenario.h"
#include "src/common/hash.h"
#include "src/common/logging.h"

namespace proteus {

namespace {

std::uint64_t HashDouble(double v) { return std::bit_cast<std::uint64_t>(v); }

// The harness injects silent hangs and blackholes, which only the
// detector can catch.
ChaosConfig NormalizeConfig(ChaosConfig config) {
  ArmDetector(config.agileml.detector);
  return config;
}

}  // namespace

std::uint64_t ChaosRunResult::Digest() const {
  std::uint64_t h = 0;
  h = HashCombine(h, static_cast<std::uint64_t>(final_clock));
  h = HashCombine(h, static_cast<std::uint64_t>(clocks_run));
  h = HashCombine(h, static_cast<std::uint64_t>(lost_clocks_total));
  h = HashCombine(h, HashDouble(virtual_time));
  h = HashCombine(h, HashDouble(final_objective));
  for (const FaultClassStats& s : per_class) {
    h = HashCombine(h, static_cast<std::uint64_t>(s.events));
    h = HashCombine(h, static_cast<std::uint64_t>(s.lost_clocks));
    h = HashCombine(h, HashDouble(s.stall_seconds));
    h = HashCombine(h, static_cast<std::uint64_t>(s.control_messages));
  }
  h = HashCombine(h, static_cast<std::uint64_t>(violations.size()));
  h = HashCombine(h, control_sent);
  h = HashCombine(h, control_delivered);
  h = HashCombine(h, control_dropped);
  h = HashCombine(h, control_pending);
  h = HashCombine(h, control_duplicated);
  h = HashCombine(h, Fnv1a(kFnvOffsetBasis, control_log_summary.data(),
                           control_log_summary.size()));
  h = HashCombine(h, detector_suspicions);
  h = HashCombine(h, detector_confirmed_dead);
  h = HashCombine(h, detector_false_positives);
  for (const int depth_count : recovery_depths) {
    h = HashCombine(h, static_cast<std::uint64_t>(depth_count));
  }
  h = HashCombine(h, durable_epochs_committed);
  h = HashCombine(h, durable_commit_aborts);
  h = HashCombine(h, static_cast<std::uint64_t>(corrupt_frames_injected));
  h = HashCombine(h, static_cast<std::uint64_t>(corrupt_epochs_skipped));
  h = HashCombine(h, static_cast<std::uint64_t>(torn_checkpoints_armed));
  h = HashCombine(h, scrubs_run);
  h = HashCombine(h, scrub_corruptions_found);
  h = HashCombine(h, serverless_nodes_revoked);
  return h;
}

// The stack's start-up checkpoint is the harness's insurance: a
// checkpoint always exists (in memory and as a committed durable epoch),
// so a stage-1 reliable failure can restore rather than lose the
// solution state and a correlated both-tier loss is survivable from the
// first clock on.
ChaosHarness::ChaosHarness(MLApp* app, ChaosConfig config)
    : app_(app),
      config_(NormalizeConfig(std::move(config))),
      injector_(config_.seed, config_.schedule),
      stack_(app_, config_.agileml,
             InitialNodes(config_.initial_serverless_allocations,
                          config_.serverless_nodes_per_allocation),
             RecoveryManagerConfig{config_.checkpoint_every, kScrubEvery}, kDurableRetain) {
  // Mirror the initial grouping into the allocation table.
  for (const NodeInfo& node : stack_.runtime().nodes()) {
    ++next_node_;
    if (node.reliable()) {
      continue;
    }
    ChaosAllocation& alloc = allocations_[node.allocation];
    alloc.serverless = node.serverless();
    if (!alloc.serverless) {
      alloc.zone = static_cast<int>(node.allocation) % config_.schedule.zones;
    }
    alloc.nodes.push_back(node.id);
    next_allocation_ = node.allocation + 1;
  }
  BindMetrics();
}

ChaosHarness::~ChaosHarness() = default;

void ChaosHarness::SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  obs_.SetTracer(tracer);
  obs_.SetMetrics(metrics);
  BindMetrics();
  stack_.SetObservability(tracer, metrics);
  control_channel_.SetObservability(metrics, "controller");
}

void ChaosHarness::BindMetrics() {
  for (int i = 0; i < kNumFaultClasses; ++i) {
    fault_counters_[static_cast<std::size_t>(i)] = obs_.GetCounter(
        "chaos.faults", {{"class", FaultClassName(static_cast<FaultClass>(i))}});
  }
}

void ChaosHarness::SetLedger(obs::EventLedger* ledger, obs::FlightRecorder* recorder) {
  obs_.SetLedger(ledger);
  stack_.SetLedger(ledger, recorder);
  control_channel_.SetLedger(ledger, "controller");
}

std::vector<NodeId> ChaosHarness::AllTransientIds() const {
  std::vector<NodeId> out;
  for (const NodeInfo& node : stack_.runtime().nodes()) {
    if (node.tier == Tier::kTransient) {
      out.push_back(node.id);
    }
  }
  return out;
}

void ChaosHarness::SendEvictionNotice(AllocationId id, const std::vector<NodeId>& nodes,
                                      bool warned) {
  control_channel_.Send(Message(EvictionNoticeMsg{
      id, nodes, warned ? 2 * kMinute : 0.0}));
}

AllocationId ChaosHarness::AddAllocation(int zone, int count) {
  const AllocationId id = next_allocation_++;
  ChaosAllocation alloc;
  alloc.zone = zone;
  std::vector<NodeInfo> nodes;
  for (int i = 0; i < count; ++i) {
    const NodeId node = next_node_++;
    alloc.nodes.push_back(node);
    nodes.push_back({node, Tier::kTransient, 8, id});
  }
  control_channel_.Send(Message(AllocationGrantMsg{id, alloc.nodes, 8}));
  stack_.runtime().AddNodes(nodes);
  allocations_[id] = std::move(alloc);
  return id;
}

AllocationId ChaosHarness::AddServerlessAllocation(int count) {
  const AllocationId id = next_allocation_++;
  ChaosAllocation alloc;
  alloc.serverless = true;
  std::vector<NodeInfo> nodes;
  for (int i = 0; i < count; ++i) {
    const NodeId node = next_node_++;
    alloc.nodes.push_back(node);
    nodes.push_back({node, Tier::kServerless, 2, id});
  }
  control_channel_.Send(Message(AllocationGrantMsg{id, alloc.nodes, 2}));
  stack_.runtime().AddNodes(nodes);
  allocations_[id] = std::move(alloc);
  return id;
}

void ChaosHarness::ClearTransientAllocations() {
  for (auto it = allocations_.begin(); it != allocations_.end();) {
    it = it->second.serverless ? ++it : allocations_.erase(it);
  }
}

void ChaosHarness::ForgetNodes(const std::vector<NodeId>& nodes) {
  for (auto it = allocations_.begin(); it != allocations_.end();) {
    auto& held = it->second.nodes;
    held.erase(std::remove_if(held.begin(), held.end(),
                              [&nodes](NodeId id) {
                                return std::find(nodes.begin(), nodes.end(), id) !=
                                       nodes.end();
                              }),
               held.end());
    it = held.empty() ? allocations_.erase(it) : ++it;
  }
}

bool ChaosHarness::Apply(const FaultEvent& event) {
  AgileMLRuntime& runtime = stack_.runtime();
  switch (event.cls) {
    case FaultClass::kZoneMassEviction: {
      // Every allocation in one zone is revoked at once (a price spike
      // clears the zone). Fall back to the busiest zone if the drawn
      // one is empty.
      if (allocations_.empty()) {
        return false;
      }
      int zone = event.magnitude % config_.schedule.zones;
      std::vector<AllocationId> victims;
      for (const auto& [id, alloc] : allocations_) {
        if (!alloc.serverless && alloc.zone == zone) {
          victims.push_back(id);
        }
      }
      if (victims.empty()) {
        std::map<int, int> per_zone;
        for (const auto& [id, alloc] : allocations_) {
          if (!alloc.serverless) {
            ++per_zone[alloc.zone];
          }
        }
        if (per_zone.empty()) {
          return false;  // Only serverless allocations left; no zones.
        }
        zone = per_zone.begin()->first;
        for (const auto& [z, n] : per_zone) {
          if (n > per_zone[zone]) {
            zone = z;
          }
        }
        for (const auto& [id, alloc] : allocations_) {
          if (!alloc.serverless && alloc.zone == zone) {
            victims.push_back(id);
          }
        }
      }
      std::vector<NodeId> all_nodes;
      for (const AllocationId id : victims) {
        const auto& alloc = allocations_.at(id);
        SendEvictionNotice(id, alloc.nodes, /*warned=*/true);
        all_nodes.insert(all_nodes.end(), alloc.nodes.begin(), alloc.nodes.end());
      }
      runtime.Evict(all_nodes);  // Correlated: one simultaneous revocation.
      ForgetNodes(all_nodes);
      return true;
    }
    case FaultClass::kPreparingEviction: {
      // A fresh allocation is granted, then revoked mid-preload: half
      // immediately (guaranteed still preparing), half at the next
      // boundary (preparing or just-incorporated — both must be safe).
      const int count = event.magnitude + 1;  // >= 2, so both halves exist.
      const int zone =
          static_cast<int>(injector_.rng().UniformInt(0, config_.schedule.zones - 1));
      const AllocationId id = AddAllocation(zone, count);
      auto& alloc = allocations_.at(id);
      const std::vector<NodeId> now(alloc.nodes.begin(),
                                    alloc.nodes.begin() + count / 2);
      SendEvictionNotice(id, now, /*warned=*/true);
      runtime.Evict(now);
      ForgetNodes(now);
      pending_preload_evictions_.push_back(id);
      return true;
    }
    case FaultClass::kMidSyncFailure: {
      // A missed warning must land between active->backup syncs so
      // unsynced clocks are really at stake; defer until then.
      if (!runtime.roles().UsesBackups() ||
          runtime.clock() == runtime.last_sync_clock()) {
        return false;
      }
      const std::vector<NodeId> ready =
          ActivePsHostsFirst(runtime.roles(), ReadyUnsilenced(runtime, Tier::kTransient));
      if (ready.empty()) {
        return false;
      }
      const std::size_t count =
          std::min<std::size_t>(ready.size(), static_cast<std::size_t>(event.magnitude));
      std::vector<NodeId> victims(ready.begin(),
                                  ready.begin() + static_cast<std::ptrdiff_t>(count));
      SendEvictionNotice(kInvalidAllocation, victims, /*warned=*/false);
      runtime.Fail(victims);
      ForgetNodes(victims);
      return true;
    }
    case FaultClass::kReliableFailure: {
      const std::vector<NodeId> reliable = ReadyUnsilenced(runtime, Tier::kReliable);
      if (reliable.size() < 2) {
        return false;  // The reliable tier must never empty out.
      }
      const NodeId victim = reliable[static_cast<std::size_t>(
          injector_.rng().UniformInt(0, static_cast<std::int64_t>(reliable.size()) - 1))];
      runtime.Fail({victim});
      // The operator replaces the on-demand machine; it preloads and
      // rejoins like any addition.
      runtime.AddNodes({{next_node_++, Tier::kReliable, 8, kInvalidAllocation}});
      return true;
    }
    case FaultClass::kTransientWipeout: {
      const std::vector<NodeId> all = AllTransientIds();
      if (all.empty()) {
        return false;
      }
      for (const auto& [id, alloc] : allocations_) {
        if (!alloc.serverless) {
          SendEvictionNotice(id, alloc.nodes, /*warned=*/false);
        }
      }
      // Half the wipeouts are warned (graceful stage fallback), half are
      // simultaneous unwarned failures (rollback under total loss).
      if (injector_.rng().Bernoulli(0.5)) {
        runtime.Evict(all);
      } else {
        runtime.Fail(all);
      }
      ClearTransientAllocations();
      pending_preload_evictions_.clear();
      return true;
    }
    case FaultClass::kControlPlaneChaos: {
      control_channel_.SetFaultHook(injector_.MakeChannelFaultHook(event.magnitude));
      return true;
    }
    case FaultClass::kSilentHang: {
      // One ready transient node stops heartbeating but keeps computing
      // (a gray failure: the control plane is cut, the data plane is
      // not). It resumes after `magnitude` clocks — short hangs recover
      // as counted false positives, long ones get confirmed dead first.
      const std::vector<NodeId> ready = ActivePsHostsFirst(
          runtime.roles(), ReadyUnsilenced(runtime, Tier::kTransient, silenced_cause_));
      if (ready.empty()) {
        return false;
      }
      const NodeId victim = ready.front();
      runtime.SetNodeSilent(victim, true);
      silenced_cause_[victim] = FaultClass::kSilentHang;
      silent_resume_[victim] = boundary_ + event.magnitude;
      return true;
    }
    case FaultClass::kBlackhole: {
      // Up to `magnitude` ready transient nodes fall off the network for
      // good — no eviction notice, no Fail() call, no resume. Only the
      // detector ever learns about them.
      const std::vector<NodeId> ready = ActivePsHostsFirst(
          runtime.roles(), ReadyUnsilenced(runtime, Tier::kTransient, silenced_cause_));
      if (ready.empty()) {
        return false;
      }
      const std::size_t count =
          std::min<std::size_t>(ready.size(), static_cast<std::size_t>(event.magnitude));
      for (std::size_t i = 0; i < count; ++i) {
        runtime.SetNodeSilent(ready[i], true);
        silenced_cause_[ready[i]] = FaultClass::kBlackhole;
      }
      return true;
    }
    case FaultClass::kDuplicate: {
      // The control link starts cloning frames; conservation must hold
      // net of the extra copies and the controller must stay idempotent.
      LinkFaultProfile profile;
      profile.dup_permille = event.magnitude;
      control_channel_.SetFaultHook(injector_.MakeLinkFaultHook(profile));
      return true;
    }
    case FaultClass::kCorrelatedWipeout: {
      // A market-wide clearing event: every transient node vanishes AND
      // `magnitude` reliable node(s) — preferring the ones serving or
      // backing partitions — die with them. When that takes out both
      // copies of some partition only the durable tier can recover, so
      // the event waits until a committed epoch validates (a corrupted
      // store self-heals at the next cadence write).
      std::vector<NodeId> reliable = ReadyUnsilenced(runtime, Tier::kReliable);
      if (reliable.size() < 2) {
        return false;  // The reliable tier must never empty out.
      }
      std::vector<NodeId> victims = AllTransientIds();
      if (victims.empty()) {
        return false;
      }
      if (!stack_.store().ReadNewestValid().has_value()) {
        return false;
      }
      // Reliable victims carry the most solution state first, so the
      // wipeout reaches the bottom of the escalation ladder whenever the
      // role map allows it.
      reliable = RankByPartitionsHeld(runtime.roles(), /*count_backups=*/true, reliable);
      const std::size_t reliable_victims = std::min<std::size_t>(
          static_cast<std::size_t>(std::max(1, event.magnitude)),
          reliable.size() - 1);
      victims.insert(victims.end(), reliable.begin(),
                     reliable.begin() + static_cast<std::ptrdiff_t>(reliable_victims));
      for (const auto& [id, alloc] : allocations_) {
        if (!alloc.serverless) {
          SendEvictionNotice(id, alloc.nodes, /*warned=*/false);
        }
      }
      SendEvictionNotice(kInvalidAllocation,
                         {reliable.begin(),
                          reliable.begin() + static_cast<std::ptrdiff_t>(reliable_victims)},
                         /*warned=*/false);
      // The dead reliable machines held the in-memory checkpoint: when
      // the active+backup pair is gone too, recovery must come from the
      // durable device, not from RAM.
      if (stack_.recovery().Classify(victims) == RecoveryDepth::kDurableRestore) {
        runtime.DropCheckpoint();
      }
      const RecoveryOutcome outcome = stack_.recovery().Recover(victims);
      corrupt_epochs_skipped_ += outcome.corrupt_epochs_skipped;
      control_channel_.Send(Message(RecoveryNoticeMsg{
          static_cast<std::int32_t>(outcome.depth),
          static_cast<std::int64_t>(outcome.restored_clock),
          static_cast<std::int32_t>(outcome.lost_clocks), outcome.durable_epoch}));
      ForgetNodes(victims);
      ClearTransientAllocations();
      pending_preload_evictions_.clear();
      // The operator replaces the dead on-demand machines; they preload
      // and rejoin like any addition.
      std::vector<NodeInfo> replacements;
      for (std::size_t i = 0; i < reliable_victims; ++i) {
        replacements.push_back({next_node_++, Tier::kReliable, 8, kInvalidAllocation});
      }
      runtime.AddNodes(replacements);
      return true;
    }
    case FaultClass::kCheckpointCorruption: {
      // Bit rot on the durable device: one stored checkpoint object is
      // flipped, truncated, or (kind 2) a chunk is deleted out from
      // under its committed manifest. Validation must refuse to load the
      // damaged epoch and Scrub must count the damage.
      std::vector<std::string> objects;
      for (const std::string& name : stack_.device().List()) {
        if (name.rfind("ck/", 0) == 0) {
          objects.push_back(name);
        }
      }
      const int kind = event.magnitude % 3;
      if (kind == 2) {
        objects.erase(std::remove_if(objects.begin(), objects.end(),
                                     [](const std::string& name) {
                                       return name.rfind("ck/obj/", 0) != 0;
                                     }),
                      objects.end());
      }
      if (objects.empty()) {
        return false;
      }
      const std::string name = objects[static_cast<std::size_t>(injector_.rng().UniformInt(
          0, static_cast<std::int64_t>(objects.size()) - 1))];
      bool injected = false;
      switch (kind) {
        case 0: {
          const auto bytes = stack_.device().Read(name);
          if (!bytes || bytes->empty()) {
            return false;
          }
          injected = stack_.device().FlipBit(
              name,
              static_cast<std::size_t>(injector_.rng().UniformInt(
                  0, static_cast<std::int64_t>(bytes->size()) - 1)),
              static_cast<int>(injector_.rng().UniformInt(0, 7)));
          break;
        }
        case 1: {
          const auto bytes = stack_.device().Read(name);
          if (!bytes || bytes->size() < 2) {
            return false;
          }
          injected = stack_.device().Truncate(name, bytes->size() / 2);
          break;
        }
        default:
          injected = stack_.device().Delete(name);
          break;
      }
      if (injected) {
        ++corrupt_frames_injected_;
      }
      return injected;
    }
    case FaultClass::kTornCheckpoint: {
      // Crash inside the next durable checkpoint write: either a chunk
      // write tears mid-frame (the store aborts the epoch) or the
      // manifest rename — the commit point — never happens (the epoch is
      // left torn: tmp manifest only, skipped by every reader).
      if (event.magnitude % 2 == 0) {
        stack_.device().ArmTornWrite(0.5);
      } else {
        stack_.device().ArmDropRename();
      }
      ++torn_checkpoints_armed_;
      return true;
    }
    case FaultClass::kTierStorm: {
      // Correlated serverless eviction storm: `magnitude` permille of
      // the ready serverless tier vanishes in the same instant with no
      // notice of any kind — no warning window, no drain, no Fail()
      // call. The victims' control AND data planes die together
      // (SetNodeRevoked); only the failure detector ever learns. A
      // second die decides whether the storm crosses tiers and takes
      // ready spot node(s) down with it, equally unannounced.
      std::vector<NodeId> ready = ReadyUnsilenced(runtime, Tier::kServerless, silenced_cause_);
      if (ready.empty()) {
        return false;
      }
      injector_.rng().Shuffle(ready);
      const int permille = std::min(event.magnitude, 1000);
      const std::size_t count = std::min(
          ready.size(),
          std::max<std::size_t>(
              1, (ready.size() * static_cast<std::size_t>(permille) + 999) / 1000));
      for (std::size_t i = 0; i < count; ++i) {
        runtime.SetNodeRevoked(ready[i]);
        silenced_cause_[ready[i]] = FaultClass::kTierStorm;
        ++serverless_nodes_revoked_;
      }
      if (injector_.rng().Bernoulli(0.5)) {
        // The storm crosses into the spot tier: up to two ready spot
        // nodes — preferring ActivePS hosts for maximum damage — go
        // permanently dark alongside the serverless victims.
        const std::vector<NodeId> spot = ActivePsHostsFirst(
            runtime.roles(), ReadyUnsilenced(runtime, Tier::kTransient, silenced_cause_));
        const std::size_t spot_victims = std::min<std::size_t>(spot.size(), 2);
        for (std::size_t i = 0; i < spot_victims; ++i) {
          runtime.SetNodeSilent(spot[i], true);
          silenced_cause_[spot[i]] = FaultClass::kTierStorm;
        }
      }
      return true;
    }
  }
  return false;
}

ChaosRunResult ChaosHarness::Run() {
  AgileMLRuntime& runtime = stack_.runtime();
  ChaosRunResult result;
  const SimDuration run_start = runtime.total_time();
  const obs::Emitter::Region run_region =
      obs_.Open("run", "chaos", run_start,
                {{"seed", static_cast<std::int64_t>(config_.seed)},
                 {"horizon", static_cast<std::int64_t>(config_.schedule.horizon)}});
  for (Clock boundary = 0; boundary < config_.schedule.horizon; ++boundary) {
    boundary_ = boundary;
    // Detector-driven rollbacks happened inside the previous RunClock;
    // their forced transfers stall this clock, so the class carries over
    // into this boundary's stall attribution.
    std::vector<FaultClass> applied = std::move(carryover_classes_);
    carryover_classes_.clear();

    // Silent-hang victims whose hang has elapsed resume heartbeating —
    // unless the detector already confirmed them dead (handled below) or
    // an overlapping fault removed them (SetNodeSilent(false) is then a
    // harmless no-op).
    for (auto it = silent_resume_.begin(); it != silent_resume_.end();) {
      if (it->second <= boundary) {
        runtime.SetNodeSilent(it->first, false);
        silenced_cause_.erase(it->first);
        it = silent_resume_.erase(it);
      } else {
        ++it;
      }
    }

    // Revocations registered by a preparing-eviction event land now,
    // while (typically) the nodes are still preloading.
    if (!pending_preload_evictions_.empty()) {
      const int lost_before = runtime.lost_clocks_total();
      const std::int64_t ctrl_before = runtime.control_log().Total();
      for (const AllocationId id : pending_preload_evictions_) {
        auto it = allocations_.find(id);
        if (it == allocations_.end() || it->second.nodes.empty()) {
          continue;  // Already removed by an overlapping fault.
        }
        const std::vector<NodeId> nodes = it->second.nodes;
        SendEvictionNotice(id, nodes, /*warned=*/true);
        runtime.Evict(nodes);
        ForgetNodes(nodes);
      }
      pending_preload_evictions_.clear();
      auto& stats = result.per_class[static_cast<std::size_t>(
          FaultClass::kPreparingEviction)];
      stats.lost_clocks += runtime.lost_clocks_total() - lost_before;
      stats.control_messages += runtime.control_log().Total() - ctrl_before;
      applied.push_back(FaultClass::kPreparingEviction);
      obs_.Instant(runtime.total_time(), "fault.preparing_eviction", "chaos",
                   {{"phase", "revoke"}, {"boundary", static_cast<std::int64_t>(boundary)}});
    }

    std::vector<FaultEvent> due = std::move(deferred_);
    deferred_.clear();
    for (const FaultEvent& event : injector_.EventsAt(boundary)) {
      due.push_back(event);
    }
    for (const FaultEvent& event : due) {
      const int lost_before = runtime.lost_clocks_total();
      const std::int64_t ctrl_before = runtime.control_log().Total();
      // Open before Apply: whatever the fault forces — evictions,
      // rollbacks, recovery-ladder steps — records as its children.
      const obs::Emitter::Region fault_region =
          obs_.Open("fault", "chaos", runtime.total_time(),
                    {{"class", std::string(FaultClassName(event.cls))},
                     {"magnitude", static_cast<std::int64_t>(event.magnitude)},
                     {"boundary", static_cast<std::int64_t>(boundary)}});
      if (!Apply(event)) {
        obs_.Close(fault_region, 0.0, {{"applied", static_cast<std::int64_t>(0)}});
        deferred_.push_back(event);
        continue;
      }
      auto& stats = result.per_class[static_cast<std::size_t>(event.cls)];
      ++stats.events;
      stats.lost_clocks += runtime.lost_clocks_total() - lost_before;
      stats.control_messages += runtime.control_log().Total() - ctrl_before;
      applied.push_back(event.cls);
      fault_counters_[static_cast<std::size_t>(event.cls)]->Increment();
      const auto lost = static_cast<std::int64_t>(runtime.lost_clocks_total() - lost_before);
      obs_.Instant(runtime.total_time(), std::string("fault.") + FaultClassName(event.cls),
                   "chaos",
                   {{"magnitude", static_cast<std::int64_t>(event.magnitude)},
                    {"boundary", static_cast<std::int64_t>(boundary)},
                    {"lost_clocks", lost}});
      obs_.Close(fault_region, 0.0,
                 {{"applied", static_cast<std::int64_t>(1)}, {"lost_clocks", lost}});
    }

    // BidBrain's next decision point: replenish lost capacity.
    const int transient_count = static_cast<int>(AllTransientIds().size());
    if (transient_count < kMinTransient) {
      const int zone =
          static_cast<int>(injector_.rng().UniformInt(0, config_.schedule.zones - 1));
      AddAllocation(zone, kNodesPerAllocation);
    }
    if (config_.min_serverless > 0) {
      // Revoked nodes are walking dead — still members until the
      // detector confirms, but not capacity.
      int serverless_count = 0;
      for (const NodeInfo& node : runtime.nodes()) {
        if (node.serverless() && !runtime.IsRevokedNode(node.id)) {
          ++serverless_count;
        }
      }
      if (serverless_count < config_.min_serverless) {
        AddServerlessAllocation(config_.serverless_nodes_per_allocation);
      }
    }

    const int lost_before_clock = runtime.lost_clocks_total();
    const std::int64_t notices_before_clock =
        runtime.control_log().NotificationTotal();
    const IterationReport report = runtime.RunClock();
    ++result.clocks_run;

    if (!report.confirmed_dead.empty()) {
      // The detector confirmed silent nodes dead inside RunClock and the
      // runtime already rolled back / recovered. Attribute the rollback
      // and the suspicion notices to the fault class that silenced each
      // victim; the recovery stall lands on the next clock (carryover).
      const int lost_delta = runtime.lost_clocks_total() - lost_before_clock;
      const std::int64_t notice_delta =
          runtime.control_log().NotificationTotal() - notices_before_clock;
      std::vector<FaultClass> causes;
      for (const NodeId node : report.confirmed_dead) {
        const auto it = silenced_cause_.find(node);
        causes.push_back(it != silenced_cause_.end() ? it->second
                                                     : FaultClass::kBlackhole);
        silenced_cause_.erase(node);
        silent_resume_.erase(node);
      }
      // One RunClock performs at most one rollback, so the whole delta
      // goes to the first victim's class; every class still shares the
      // next clock's stall.
      auto& first_stats = result.per_class[static_cast<std::size_t>(causes.front())];
      first_stats.lost_clocks += lost_delta;
      first_stats.control_messages += notice_delta;
      for (const FaultClass cause : causes) {
        carryover_classes_.push_back(cause);
      }
      ForgetNodes(report.confirmed_dead);
      obs_.Instant(runtime.total_time(), "fault.confirmed_dead", "chaos",
                   {{"victims", static_cast<std::int64_t>(report.confirmed_dead.size())},
                    {"lost_clocks", static_cast<std::int64_t>(lost_delta)},
                    {"boundary", static_cast<std::int64_t>(boundary)}});
    }

    if (!applied.empty()) {
      // Forced-transfer stall of the recovery clock, split across the
      // fault classes that caused it.
      const SimDuration share = report.stall / static_cast<double>(applied.size());
      const SimDuration clock_start = runtime.total_time() - report.duration;
      for (const FaultClass cls : applied) {
        result.per_class[static_cast<std::size_t>(cls)].stall_seconds += share;
        // One recovery span per contributing fault class; chaos_soak
        // aggregates these into the per-class recovery breakdown.
        obs_.Span(clock_start, share, "recovery", "chaos",
                  {{"class", FaultClassName(cls)},
                   {"stall_share", share},
                   {"clock", static_cast<std::int64_t>(report.clock)}});
      }
    }

    // Checkpoint cadence and periodic durable scrubbing live in the
    // recovery manager; every in-memory checkpoint is mirrored as a
    // durable epoch on the simulated device.
    stack_.recovery().OnClockBoundary();

    // The controller drains its inbox; delayed frames age one poll each.
    for (int i = 0; i < 4; ++i) {
      control_channel_.Poll();
    }
    stack_.auditor().ObserveChannel(control_channel_, "controller");
    stack_.auditor().ObserveClock();
  }

  result.final_clock = runtime.clock();
  result.lost_clocks_total = runtime.lost_clocks_total();
  result.virtual_time = runtime.total_time();
  obs_.Close(run_region, runtime.total_time() - run_start,
             {{"clocks_run", static_cast<std::int64_t>(result.clocks_run)},
              {"final_clock", static_cast<std::int64_t>(result.final_clock)},
              {"lost_clocks", static_cast<std::int64_t>(result.lost_clocks_total)}});
  result.final_objective = runtime.ComputeObjective();
  result.violations = stack_.auditor().violations();
  result.control_sent = control_channel_.messages_sent();
  result.control_delivered = control_channel_.messages_delivered();
  result.control_dropped = control_channel_.messages_dropped();
  result.control_pending = control_channel_.pending();
  result.control_duplicated = control_channel_.messages_duplicated();
  result.control_log_summary = runtime.control_log().Summary();
  const FailureDetector& detector = runtime.failure_detector();
  result.detector_suspicions = detector.suspicions();
  result.detector_confirmed_dead = detector.confirmations();
  result.detector_false_positives = detector.false_positives();
  result.recovery_depths = stack_.recovery().depth_counts();
  result.durable_epochs_committed = stack_.store().epochs_committed();
  result.durable_commit_aborts = stack_.store().commit_aborts();
  result.corrupt_frames_injected = corrupt_frames_injected_;
  result.corrupt_epochs_skipped = corrupt_epochs_skipped_;
  result.torn_checkpoints_armed = torn_checkpoints_armed_;
  result.scrubs_run = stack_.recovery().scrubs_run();
  result.scrub_corruptions_found = stack_.recovery().scrub_corruptions_found();
  result.serverless_nodes_revoked = serverless_nodes_revoked_;
  return result;
}

}  // namespace proteus
