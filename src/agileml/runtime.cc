#include "src/agileml/runtime.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "src/common/hash.h"
#include "src/common/logging.h"

namespace proteus {

namespace {
// Sorts and dedups one node's logged keys, then adds each distinct row's
// wire bytes (row_bytes, per table) to its partition's tally.
void TallyDistinctRows(std::vector<RowKey>& keys, const ModelStore& model,
                       const std::vector<std::uint64_t>& row_bytes,
                       std::vector<std::uint64_t>& tally) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (const RowKey key : keys) {
    const int table = TableOfKey(key);
    const PartitionId p = model.PartitionOf(table, RowOfKey(key));
    tally[static_cast<std::size_t>(p)] += row_bytes[static_cast<std::size_t>(table)];
  }
}
}  // namespace

AgileMLRuntime::AgileMLRuntime(MLApp* app, AgileMLConfig config,
                               const std::vector<NodeInfo>& initial_nodes)
    : app_(app),
      config_(config),
      model_(app->DefineModel().tables, config.num_partitions, config.seed),
      fabric_(config.nic_bandwidth),
      data_(app->NumItems(), config.data_blocks),
      planner_(config.planner),
      clocks_(config.staleness),
      detector_(config.detector),
      guard_(config.tier_guard) {
  PROTEUS_CHECK(app_ != nullptr);
  PROTEUS_CHECK(!initial_nodes.empty());
  if (config_.parallel_execution) {
    const std::size_t hw = std::max(2u, std::thread::hardware_concurrency());
    pool_ = std::make_unique<ThreadPool>(hw);
  }
  for (const auto& node : initial_nodes) {
    PROTEUS_CHECK_GE(node.id, 0);
    PROTEUS_CHECK(!fabric_.HasNode(node.id)) << "duplicate node id " << node.id;
    nodes_.push_back(node);
    fabric_.AddNode(node.id);
    ready_.insert(node.id);
    if (config_.detector.enabled) {
      detector_.Register(node.id, clock_);
    }
  }
  // Initial placement: data is loaded during start-up, before the first
  // clock, so nothing is charged to iteration time.
  roles_ = planner_.Plan(ReadyNodes(), config_.num_partitions, nullptr);
  if (roles_.UsesBackups()) {
    model_.EnableBackups();
  }
  std::vector<NodeId> workers(roles_.worker_nodes.begin(), roles_.worker_nodes.end());
  data_.Rebalance(workers);
  RebuildClockTable();
  BindMetrics();
}

AgileMLRuntime::~AgileMLRuntime() = default;

void AgileMLRuntime::SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  obs_.SetTracer(tracer);
  obs_.SetMetrics(metrics);
  BindMetrics();
}

void AgileMLRuntime::SetLedger(obs::EventLedger* ledger) { obs_.SetLedger(ledger); }

void AgileMLRuntime::BindMetrics() {
  pull_bytes_counter_ = obs_.GetCounter("agileml.pull.bytes");
  push_bytes_counter_ = obs_.GetCounter("agileml.push.bytes");
  backup_sync_bytes_counter_ = obs_.GetCounter("agileml.backup_sync.bytes");
  stage_transition_counter_ = obs_.GetCounter("agileml.stage.transitions");
  rollback_clocks_counter_ = obs_.GetCounter("agileml.rollback.lost_clocks");
  stall_seconds_counter_ = obs_.GetCounter("agileml.stall.microseconds");
  checkpoint_bytes_written_counter_ = obs_.GetCounter("agileml.checkpoint.bytes_written");
  checkpoint_bytes_restored_counter_ = obs_.GetCounter("agileml.checkpoint.bytes_restored");
  restore_clocks_lost_counter_ = obs_.GetCounter("agileml.checkpoint.restore_clocks_lost");
  backup_lag_gauge_ = obs_.GetGauge("agileml.backup_sync.lag_clocks");
  worker_nodes_gauge_ = obs_.GetGauge("agileml.workers");
  detector_suspicions_counter_ = obs_.GetCounter("agileml.detector.suspicions");
  detector_confirmed_counter_ = obs_.GetCounter("agileml.detector.confirmed_dead");
  detector_false_positives_counter_ = obs_.GetCounter("agileml.detector.false_positives");
  detector_latency_gauge_ = obs_.GetGauge("agileml.detector.detection_latency_clocks");
  clock_duration_hist_ = obs_.GetHistogram(
      "agileml.clock.duration_seconds",
      {0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 60.0, 120.0, 300.0});
}

const NodeInfo& AgileMLRuntime::Node(NodeId id) const {
  for (const auto& node : nodes_) {
    if (node.id == id) {
      return node;
    }
  }
  PROTEUS_LOG(Fatal) << "unknown node " << id;
  __builtin_unreachable();
}

std::vector<NodeInfo> AgileMLRuntime::ReadyNodes() const {
  std::vector<NodeInfo> out;
  for (const auto& node : nodes_) {
    if (IsReady(node.id)) {
      out.push_back(node);
    }
  }
  return out;
}

TierCounts AgileMLRuntime::ReadyTierCounts() const { return CountTiers(ReadyNodes()); }

double AgileMLRuntime::ComputeObjective() const { return app_->ComputeObjective(model_); }

void AgileMLRuntime::RebuildClockTable() {
  clocks_ = ClockTable(config_.staleness);
  for (const NodeId w : roles_.worker_nodes) {
    clocks_.AddWorkerNode(w);
    clocks_.AdvanceTo(w, clock_);
  }
}

void AgileMLRuntime::TransitionRoles(const std::set<NodeId>& leaving, bool forced) {
  const std::vector<NodeInfo> members = ReadyNodes();
  PROTEUS_CHECK(!members.empty()) << "cluster has no ready nodes left";
  RoleAssignment next = planner_.Plan(members, config_.num_partitions, &roles_);
  const TrafficClass cls = forced ? TrafficClass::kForeground : TrafficClass::kBackground;

  const bool had_backups = roles_.UsesBackups();
  const bool will_have_backups = next.UsesBackups();

  if (!had_backups && will_have_backups) {
    // Stage 1 -> 2: snapshot current state as the backup copy. The
    // backup owners are reliable nodes that held the state as ParamServs,
    // so creating the backup costs no wire traffic. The snapshot is by
    // construction a complete active->backup sync as of this clock —
    // without advancing last_sync_clock_ here, a failure right after the
    // transition would roll back past state the backups actually hold.
    model_.EnableBackups();
    last_sync_clock_ = clock_;
    last_sync_bytes_.clear();
  }
  if (roles_.stage != next.stage && !roles_.server.empty()) {
    control_log_.Record(ControlMessage::kStageSwitch);
    stage_transition_counter_->Increment();
    // Role moves are instantaneous in virtual time; their cost lands in
    // the next clock's stall (recovery.stall span).
    obs_.Event("stage.transition", "agileml", total_time_,
               {{"from", std::string(StageName(roles_.stage))},
                {"to", std::string(StageName(next.stage))},
                {"clock", static_cast<std::int64_t>(clock_)},
                {"forced", static_cast<std::int64_t>(forced ? 1 : 0)}});
  }
  if (had_backups && !will_have_backups) {
    // Stage 2/3 -> 1: end-of-life push — every serving node streams its
    // aggregated dirty deltas to the BackupPS, which then takes over as a
    // ParamServ (§3.3 "Evictions"). Leaving nodes are still alive during
    // the warning window, so they can push.
    for (PartitionId p = 0; p < config_.num_partitions; ++p) {
      // Flush both the unsynced dirty rows and the in-flight tail of the
      // asynchronous background stream.
      const std::uint64_t bytes = model_.SyncPartitionToBackup(p) + last_sync_bytes_[p];
      const NodeId src = roles_.server.at(p);
      const NodeId dst = roles_.backup.at(p);
      queued_.push_back({leaving.count(src) > 0 ? kInvalidNode : src, dst, bytes, cls, forced});
      control_log_.Record(ControlMessage::kEndOfLifeFlag);
    }
    last_sync_bytes_.clear();
    last_sync_clock_ = clock_;
  }

  // Serving-state migration.
  for (PartitionId p = 0; p < config_.num_partitions; ++p) {
    const NodeId new_server = next.server.at(p);
    auto old_it = roles_.server.find(p);
    if (old_it == roles_.server.end()) {
      continue;  // Initial placement, state materializes in place.
    }
    const NodeId old_server = old_it->second;
    if (old_server == new_server) {
      continue;
    }
    // Pick a transfer source: the old server if it is still around (ready
    // or in its warning window), otherwise the partition's backup.
    NodeId src = kInvalidNode;
    std::uint64_t bytes = model_.PartitionBytes(p);
    if (IsReady(old_server)) {
      src = old_server;
    } else if (leaving.count(old_server) > 0) {
      // Warned eviction: the departing node pushes directly to the new
      // owner; we charge only the receiver (the sender is on its way out
      // and its egress gates nothing).
      src = kInvalidNode;
    } else {
      auto backup_it = roles_.backup.find(p);
      if (backup_it != roles_.backup.end() && IsReady(backup_it->second)) {
        src = backup_it->second;
      }
    }
    if (src == new_server) {
      continue;  // Receiver already holds a replica (it was the backup).
    }
    // If the new server is the partition's backup owner and backups are
    // in sync, the state is already local.
    if (had_backups) {
      auto backup_it = roles_.backup.find(p);
      if (backup_it != roles_.backup.end() && backup_it->second == new_server &&
          !will_have_backups) {
        continue;  // Handled by the end-of-life push above.
      }
    }
    queued_.push_back({src, new_server, bytes, cls, forced});
    // Workers are pointed at the new partition owner (§3.3).
    control_log_.Record(ControlMessage::kPartitionOwnership);
  }

  // Backup-ownership migration (reliable membership changed).
  if (will_have_backups && had_backups) {
    for (PartitionId p = 0; p < config_.num_partitions; ++p) {
      const NodeId new_backup = next.backup.at(p);
      auto old_it = roles_.backup.find(p);
      if (old_it == roles_.backup.end() || old_it->second == new_backup) {
        continue;
      }
      const NodeId old_backup = old_it->second;
      const NodeId src = IsReady(old_backup) ? old_backup : next.server.at(p);
      if (src == new_backup) {
        continue;
      }
      queued_.push_back({src, new_backup, model_.PartitionBytes(p), cls, forced});
    }
  }

  roles_ = std::move(next);
}

void AgileMLRuntime::RebalanceData(bool forced) {
  std::vector<NodeId> workers;
  for (const auto& node : nodes_) {  // Preserve join order.
    if (roles_.worker_nodes.count(node.id) > 0) {
      workers.push_back(node.id);
    }
  }
  PROTEUS_CHECK(!workers.empty());
  const std::vector<BlockMove> moves = data_.Rebalance(workers);
  std::set<NodeId> notified;
  for (const auto& move : moves) {
    if (move.to != kInvalidNode) {
      notified.insert(move.to);
    }
    if (move.from != kInvalidNode) {
      notified.insert(move.from);
    }
  }
  control_log_.Record(ControlMessage::kDataAssignment,
                      static_cast<std::int64_t>(notified.size()));
  const TrafficClass cls = forced ? TrafficClass::kForeground : TrafficClass::kBackground;
  for (const auto& move : moves) {
    if (!move.needs_load) {
      continue;  // Previous owner took over: data already in memory.
    }
    const auto bytes =
        static_cast<std::uint64_t>(data_.BlockBytes(move.block, config_.bytes_per_item));
    queued_.push_back({kInvalidNode, move.to, bytes, cls, forced});
  }
}

void AgileMLRuntime::AddNodes(const std::vector<NodeInfo>& new_nodes) {
  const std::size_t current_workers = std::max<std::size_t>(1, roles_.worker_nodes.size());
  for (const auto& node : new_nodes) {
    PROTEUS_CHECK_GE(node.id, 0);
    PROTEUS_CHECK(!fabric_.HasNode(node.id)) << "duplicate node id " << node.id;
    nodes_.push_back(node);
    fabric_.AddNode(node.id);
    // Preload estimate: a new node loads about twice its working share
    // (Fig. 5: loads 1/2 of the data, works on 1/4).
    const double share = static_cast<double>(app_->NumItems()) /
                         static_cast<double>(current_workers + new_nodes.size());
    preparing_[node.id] = static_cast<std::uint64_t>(2.0 * share * config_.bytes_per_item);
  }
  if (!new_nodes.empty()) {
    obs_.Event("nodes.add", "agileml", total_time_,
               {{"count", static_cast<std::int64_t>(new_nodes.size())},
                {"clock", static_cast<std::int64_t>(clock_)}});
  }
}

void AgileMLRuntime::IncorporateReady() {
  std::vector<NodeId> newly;
  for (auto it = preparing_.begin(); it != preparing_.end();) {
    if (it->second == 0) {
      newly.push_back(it->first);
      it = preparing_.erase(it);
    } else {
      ++it;
    }
  }
  if (newly.empty()) {
    return;
  }
  for (const NodeId id : newly) {
    ready_.insert(id);
    control_log_.Record(ControlMessage::kReadySignal);
    if (config_.detector.enabled) {
      detector_.Register(id, clock_);
    }
  }
  TransitionRoles(/*leaving=*/{}, /*forced=*/false);
  // New nodes preloaded their data during the preparing phase; mark their
  // assigned blocks loaded without charging again.
  std::vector<NodeId> workers;
  for (const auto& node : nodes_) {
    if (roles_.worker_nodes.count(node.id) > 0) {
      workers.push_back(node.id);
    }
  }
  const std::vector<BlockMove> moves = data_.Rebalance(workers);
  for (const auto& move : moves) {
    const bool prepaid = std::find(newly.begin(), newly.end(), move.to) != newly.end();
    if (!move.needs_load || prepaid) {
      continue;
    }
    const auto bytes =
        static_cast<std::uint64_t>(data_.BlockBytes(move.block, config_.bytes_per_item));
    queued_.push_back({kInvalidNode, move.to, bytes, TrafficClass::kBackground, false});
  }
  RebuildClockTable();
  obs_.Event("nodes.incorporate", "agileml", total_time_,
             {{"count", static_cast<std::int64_t>(newly.size())},
              {"stage", std::string(StageName(roles_.stage))},
              {"clock", static_cast<std::int64_t>(clock_)}});
  PROTEUS_LOG(Debug) << "incorporated " << newly.size() << " nodes; stage "
                     << StageName(roles_.stage);
}

void AgileMLRuntime::Evict(const std::vector<NodeId>& node_ids) {
  std::set<NodeId> leaving;
  for (const NodeId id : node_ids) {
    if (preparing_.erase(id) > 0) {
      // Node was still preloading; it simply disappears.
      fabric_.RemoveNode(id);
      nodes_.erase(std::remove_if(nodes_.begin(), nodes_.end(),
                                  [id](const NodeInfo& n) { return n.id == id; }),
                   nodes_.end());
      continue;
    }
    PROTEUS_CHECK(IsReady(id)) << "evicting unknown node " << id;
    PROTEUS_CHECK(revoked_.count(id) == 0)
        << "warned drain of zero-warning node " << id
        << "; revoked nodes go through the detector-confirmed Fail path only";
    leaving.insert(id);
    ready_.erase(id);
    silenced_.erase(id);
    detector_.Unregister(id);
    control_log_.Record(ControlMessage::kEvictionSignal);
  }
  if (leaving.empty()) {
    return;
  }
  obs_.Event("nodes.evict", "agileml", total_time_,
             {{"count", static_cast<std::int64_t>(leaving.size())},
              {"clock", static_cast<std::int64_t>(clock_)}});
  TransitionRoles(leaving, /*forced=*/true);
  for (const NodeId id : leaving) {
    data_.DropNode(id);
  }
  RebalanceData(/*forced=*/true);
  for (const NodeId id : leaving) {
    fabric_.RemoveNode(id);
    nodes_.erase(std::remove_if(nodes_.begin(), nodes_.end(),
                                [id](const NodeInfo& n) { return n.id == id; }),
                 nodes_.end());
  }
  RebuildClockTable();
}

int AgileMLRuntime::Fail(const std::vector<NodeId>& node_ids) {
  return FailInternal(node_ids, /*durable_restore=*/false);
}

int AgileMLRuntime::FailWithDurableRestore(const std::vector<NodeId>& node_ids) {
  return FailInternal(node_ids, /*durable_restore=*/true);
}

int AgileMLRuntime::FailInternal(const std::vector<NodeId>& node_ids, bool durable_restore) {
  std::set<NodeId> dead;
  bool lost_server_state = false;
  bool lost_reliable_ps = false;
  bool revoked_victim = false;
  for (const NodeId id : node_ids) {
    if (preparing_.erase(id) > 0) {
      fabric_.RemoveNode(id);
      nodes_.erase(std::remove_if(nodes_.begin(), nodes_.end(),
                                  [id](const NodeInfo& n) { return n.id == id; }),
                   nodes_.end());
      continue;
    }
    PROTEUS_CHECK(IsReady(id)) << "failing unknown node " << id;
    dead.insert(id);
    ready_.erase(id);
    silenced_.erase(id);
    if (revoked_.erase(id) > 0) {
      revoked_victim = true;
    }
    detector_.Unregister(id);
    for (const auto& [part, server] : roles_.server) {
      if (server == id) {
        if (roles_.UsesBackups()) {
          lost_server_state = true;
        } else {
          lost_reliable_ps = true;
        }
        break;
      }
    }
  }
  if (dead.empty()) {
    return 0;
  }
  // Taint rollback: a zero-warning (revoked) victim stopped contributing
  // the instant it was revoked, so every clock completed since then is
  // missing its updates. Roll back to the last backup sync even when the
  // victims were pure workers — the backup copy is the newest state
  // guaranteed untainted.
  if (revoked_victim && roles_.UsesBackups()) {
    lost_server_state = true;
  }
  const obs::EventId fail_event = obs_.Event(
      "nodes.fail", "agileml", total_time_,
      {{"count", static_cast<std::int64_t>(dead.size())},
       {"clock", static_cast<std::int64_t>(clock_)},
       {"lost_server_state", static_cast<std::int64_t>(lost_server_state ? 1 : 0)},
       {"lost_reliable_ps", static_cast<std::int64_t>(lost_reliable_ps ? 1 : 0)}});

  int lost_clocks = 0;
  [[maybe_unused]] const std::int64_t rollback_notices_before =
      control_log_.Count(ControlMessage::kRollbackNotice);
  if (durable_restore) {
    // Correlated loss of both tiers: neither the ActivePS rows on the
    // dead transients nor the backup/rollback copy on the dead reliable
    // node(s) survive, so the backup-rollback path below would recover
    // from state that no longer exists. The caller has installed the
    // newest valid durable checkpoint; restore from it instead.
    PROTEUS_CHECK(checkpoint_.has_value())
        << "durable-restore failure with no checkpoint installed";
    lost_clocks = RestoreFromCheckpoint();
    control_log_.Record(ControlMessage::kRecoveryNotice,
                        static_cast<std::int64_t>(roles_.worker_nodes.size()));
  } else if (lost_server_state) {
    // §3.3 "Failures": BackupPS state is the new solution state; all
    // workers re-do the clocks since the last active->backup sync.
    lost_clocks = static_cast<int>(clock_ - last_sync_clock_);
    model_.RollbackAllToBackup();
    clock_ = last_sync_clock_;
    // Leases renewed at the discarded clocks would defer detection of
    // nodes that die during the re-executed window.
    detector_.RewindTo(clock_);
    lost_clocks_total_ += lost_clocks;
    if (lost_clocks > 0) {
      control_log_.Record(ControlMessage::kRollbackNotice,
                          static_cast<std::int64_t>(roles_.worker_nodes.size()));
    }
    rollback_clocks_counter_->Add(static_cast<std::uint64_t>(lost_clocks));
    // Causal parent is the failure that forced the rollback, not the
    // ambient region — analysis can tell fault-driven rollbacks apart.
    obs_.EventWithParent("rollback", "agileml", total_time_, fail_event,
                         {{"kind", std::string("backup")},
                          {"lost_clocks", static_cast<std::int64_t>(lost_clocks)},
                          {"to_clock", static_cast<std::int64_t>(clock_)},
                          {"failed_nodes", static_cast<std::int64_t>(dead.size())}});
  } else if (lost_reliable_ps) {
    // A reliable ParamServ died in stage 1: only a checkpoint can save
    // the solution state.
    PROTEUS_CHECK(checkpoint_.has_value())
        << "reliable ParamServ failed with no checkpoint; solution state lost";
    lost_clocks = RestoreFromCheckpoint();
  }
  // Every Fail() path that discards completed clocks must have told the
  // workers to restart from a past clock.
  PROTEUS_DCHECK(lost_clocks == 0 ||
                 control_log_.Count(ControlMessage::kRollbackNotice) >
                     rollback_notices_before)
      << "Fail() lost " << lost_clocks << " clocks without a rollback notice";

  TransitionRoles(/*leaving=*/{}, /*forced=*/true);
  for (const NodeId id : dead) {
    data_.DropNode(id);
  }
  RebalanceData(/*forced=*/true);
  for (const NodeId id : dead) {
    fabric_.RemoveNode(id);
    nodes_.erase(std::remove_if(nodes_.begin(), nodes_.end(),
                                [id](const NodeInfo& n) { return n.id == id; }),
                 nodes_.end());
  }
  RebuildClockTable();
  return lost_clocks;
}

void AgileMLRuntime::SetNodeSilent(NodeId id, bool silent) {
  if (!silent) {
    silenced_.erase(id);
    return;
  }
  PROTEUS_CHECK(IsReady(id)) << "silencing unknown node " << id;
  silenced_.insert(id);
}

void AgileMLRuntime::SetNodeRevoked(NodeId id) {
  PROTEUS_CHECK(IsReady(id)) << "revoking unknown node " << id;
  revoked_.insert(id);
  silenced_.insert(id);  // Heartbeats stop the same instant.
  obs_.Event("nodes.revoked", "agileml", total_time_,
             {{"node", static_cast<std::int64_t>(id)},
              {"clock", static_cast<std::int64_t>(clock_)}});
}

TierGuardReport AgileMLRuntime::AuditTierGuard() const {
  const int extra = revoked_.empty() ? 0 : config_.detector.confirm_after;
  return guard_.Audit(ReadyNodes(), roles_, clock_, last_sync_clock_, extra);
}

void AgileMLRuntime::CheckpointReliable() {
  std::vector<std::uint8_t> blob = model_.SerializeCheckpoint();
  const std::uint64_t checkpoint_bytes = blob.size();
  checkpoint_bytes_written_total_ += checkpoint_bytes;
  checkpoint_bytes_written_counter_->Add(checkpoint_bytes);
  checkpoint_ = Checkpoint{std::move(blob), clock_};
  obs_.Event("checkpoint", "agileml", total_time_,
             {{"clock", static_cast<std::int64_t>(clock_)},
              {"bytes", static_cast<std::int64_t>(checkpoint_bytes)}});
  // Charge the checkpoint write: each reliable node holding solution
  // state streams its share to durable storage in the background. In
  // stage 3 reliable nodes have no foreground role, so this is free —
  // the paper's "checkpointing ... has no overhead" observation.
  const auto& owners = roles_.UsesBackups() ? roles_.backup : roles_.server;
  for (PartitionId p = 0; p < config_.num_partitions; ++p) {
    auto it = owners.find(p);
    if (it != owners.end() && IsReady(it->second)) {
      queued_.push_back({it->second, kInvalidNode, model_.PartitionBytes(p),
                         TrafficClass::kBackground, false});
    }
  }
}

int AgileMLRuntime::RestoreFromCheckpoint() {
  PROTEUS_CHECK(checkpoint_.has_value());
  const std::uint64_t restored_bytes = checkpoint_->blob.size();
  model_.RestoreCheckpoint(checkpoint_->blob);
  // delta > 0 is an ordinary rollback. delta < 0 is a *forward* restore:
  // the snapshot holds clocks a prior rollback declared lost (e.g. a
  // durable epoch newer than the last backup sync), so the jump credits
  // them back against lost_clocks_total_ — the completed-clock counter
  // (clock + lost) stays put either way. The credit clamps at zero for a
  // restart driver installing a snapshot into a fresh runtime, where the
  // jump recovers work this runtime never counted as lost.
  const int delta = static_cast<int>(clock_ - checkpoint_->clock);
  const int lost = std::max(0, delta);
  clock_ = checkpoint_->clock;
  detector_.RewindTo(clock_);
  checkpoint_bytes_restored_total_ += restored_bytes;
  restore_clocks_lost_total_ += lost;
  checkpoint_bytes_restored_counter_->Add(restored_bytes);
  restore_clocks_lost_counter_->Add(static_cast<std::uint64_t>(lost));
  if (roles_.UsesBackups()) {
    // Re-snapshot: backups were also stale. The snapshot doubles as a
    // complete sync at the restored clock.
    model_.EnableBackups();
    last_sync_clock_ = clock_;
    last_sync_bytes_.clear();
  } else {
    last_sync_clock_ = std::min(last_sync_clock_, clock_);
  }
  restore_clocks_credited_total_ +=
      lost_clocks_total_ - std::max(0, lost_clocks_total_ + delta) + lost;
  lost_clocks_total_ = std::max(0, lost_clocks_total_ + delta);
  if (lost > 0) {
    // Workers restart from the checkpointed clock.
    control_log_.Record(ControlMessage::kRollbackNotice,
                        static_cast<std::int64_t>(roles_.worker_nodes.size()));
  }
  rollback_clocks_counter_->Add(static_cast<std::uint64_t>(lost));
  obs_.Event("rollback", "agileml", total_time_,
             {{"kind", std::string("checkpoint")},
              {"lost_clocks", static_cast<std::int64_t>(lost)},
              {"to_clock", static_cast<std::int64_t>(clock_)},
              {"bytes_restored", static_cast<std::int64_t>(restored_bytes)}});
  // Worker clocks must follow the runtime clock backwards, or the next
  // RunClock would violate ClockTable's monotonic-advance invariant.
  // (Fail() rebuilds again after membership settles; that is idempotent.)
  RebuildClockTable();
  return lost;
}

void AgileMLRuntime::InstallCheckpoint(std::vector<std::uint8_t> blob, Clock clock) {
  checkpoint_ = Checkpoint{std::move(blob), clock};
}

void AgileMLRuntime::DropCheckpoint() { checkpoint_.reset(); }

SimDuration AgileMLRuntime::ChargeQueuedTransfers() {
  // Stall transfers (eviction/failure handling) halt the training
  // pipeline until the state lands; they contribute serialized time
  // bounded by the most-loaded endpoint's NIC.
  std::map<NodeId, std::uint64_t> stall_bytes;
  for (const auto& t : queued_) {
    const bool src_ok = t.src != kInvalidNode && fabric_.HasNode(t.src);
    const bool dst_ok = t.dst != kInvalidNode && fabric_.HasNode(t.dst);
    if (t.stall) {
      if (src_ok) {
        stall_bytes[t.src] += t.bytes;
      }
      if (dst_ok) {
        stall_bytes[t.dst] += t.bytes;
      }
      continue;
    }
    if (src_ok && dst_ok) {
      fabric_.RecordTransfer(t.src, t.dst, t.bytes, t.cls);
    } else if (dst_ok) {
      fabric_.RecordExternalIngress(t.dst, t.bytes, t.cls);
    } else if (src_ok) {
      fabric_.RecordExternalEgress(t.src, t.bytes, t.cls);
    }
    // Both endpoints gone: the transfer is moot.
  }
  queued_.clear();
  std::uint64_t worst = 0;
  for (const auto& [node, bytes] : stall_bytes) {
    worst = std::max(worst, bytes);
  }
  return static_cast<SimDuration>(worst) / config_.nic_bandwidth;
}

void AgileMLRuntime::SyncAllToBackups(TrafficClass cls) {
  std::uint64_t total_bytes = 0;
  for (PartitionId p = 0; p < config_.num_partitions; ++p) {
    const std::uint64_t bytes = model_.SyncPartitionToBackup(p);
    last_sync_bytes_[p] = bytes;
    if (bytes == 0) {
      continue;
    }
    total_bytes += bytes;
    const NodeId src = roles_.server.at(p);
    const NodeId dst = roles_.backup.at(p);
    if (fabric_.HasNode(src) && fabric_.HasNode(dst)) {
      fabric_.RecordTransfer(src, dst, bytes, cls);
    }
  }
  backup_sync_bytes_counter_->Add(total_bytes);
}

IterationReport AgileMLRuntime::RunClock() {
  const SimDuration clock_start = total_time_;
  // Open the clock's causal region first: everything recorded until the
  // matching Close (comm accounting, backup syncs, detector verdicts,
  // detector-driven failure handling) is a child of this clock.
  const obs::Emitter::Region clock_region =
      obs_.Open("clock", "agileml", clock_start, {{"clock", static_cast<std::int64_t>(clock_)}});
  last_clock_event_ = clock_region.id;
  fabric_.BeginRound();
  const SimDuration stall = ChargeQueuedTransfers();

  // Preparing nodes absorb input data from storage in the background.
  const auto chunk = static_cast<std::uint64_t>(config_.storage_bandwidth *
                                                std::max(last_duration_, 0.5));
  for (auto& [id, remaining] : preparing_) {
    const std::uint64_t used = std::min(remaining, chunk);
    fabric_.RecordExternalIngress(id, used, TrafficClass::kBackground);
    remaining -= used;
  }

  // --- Worker execution (real arithmetic, virtual compute time) ---
  // Each worker slot logs its node's row accesses, then tallies the
  // distinct rows into per-partition pull/push bytes in the same task.
  std::vector<NodeId> workers(roles_.worker_nodes.begin(), roles_.worker_nodes.end());
  if (slots_.size() < workers.size()) {
    slots_.resize(workers.size());  // Before the parallel section.
  }
  const auto num_partitions = static_cast<std::size_t>(config_.num_partitions);
  std::vector<std::uint64_t> row_bytes;
  for (const TableSpec& spec : model_.tables()) {
    row_bytes.push_back(model_.RowBytes(spec.table_id));
  }
  const int minibatches = std::max(1, config_.minibatches_per_pass);
  const int phase = static_cast<int>(clock_ % minibatches);
  auto clock_slice = [&](const ItemRange& range) {
    // The phase-th 1/k slice of the range; k consecutive clocks cover it.
    ItemRange slice;
    slice.begin = range.begin + range.size() * phase / minibatches;
    slice.end = range.begin + range.size() * (phase + 1) / minibatches;
    return slice;
  };
  auto run_node = [&](const std::size_t i) {
    const NodeId w = workers[i];
    WorkerSlot& slot = slots_[i];
    slot.log.reads.clear();
    slot.log.updates.clear();
    slot.pull_bytes.assign(num_partitions, 0);
    slot.push_bytes.assign(num_partitions, 0);
    if (revoked_.count(w) > 0) {
      return;  // Revoked with zero warning: the node executes nothing.
    }
    const std::uint64_t stream =
        HashCombine(config_.seed, HashCombine(static_cast<std::uint64_t>(w),
                                              static_cast<std::uint64_t>(clock_)));
    WorkerContext ctx(w, &model_, &slot.log, Rng(stream));
    for (const ItemRange& range : data_.RangesOf(w)) {
      const ItemRange slice = clock_slice(range);
      if (slice.size() > 0) {
        app_->ProcessRange(ctx, slice.begin, slice.end);
      }
    }
    TallyDistinctRows(slot.log.reads, model_, row_bytes, slot.pull_bytes);
    TallyDistinctRows(slot.log.updates, model_, row_bytes, slot.push_bytes);
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(workers.size(), run_node);
  } else {
    for (std::size_t i = 0; i < workers.size(); ++i) {
      run_node(i);
    }
  }

  // --- Communication accounting ---
  // Reads: server egress -> worker ingress; updates: worker egress ->
  // server ingress. At most one of each per (worker, partition) pair:
  // zero tallies and self-transfers are free.
  std::uint64_t pull_bytes = 0;  // Server -> worker (parameter reads).
  std::uint64_t push_bytes = 0;  // Worker -> server (update write-backs).
  const std::vector<NodeId> server_of = roles_.ServerByPartition(config_.num_partitions);
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const NodeId w = workers[i];
    const WorkerSlot& slot = slots_[i];
    for (std::size_t p = 0; p < num_partitions; ++p) {
      pull_bytes += slot.pull_bytes[p];
      push_bytes += slot.push_bytes[p];
      fabric_.RecordTransfer(server_of[p], w, slot.pull_bytes[p], TrafficClass::kForeground);
      fabric_.RecordTransfer(w, server_of[p], slot.push_bytes[p], TrafficClass::kForeground);
    }
  }
  pull_bytes_counter_->Add(pull_bytes);
  push_bytes_counter_->Add(push_bytes);
  obs_.Event("pull", "agileml", clock_start, {{"bytes", static_cast<std::int64_t>(pull_bytes)}});
  obs_.Event("push", "agileml", clock_start, {{"bytes", static_cast<std::int64_t>(push_bytes)}});

  // --- Active -> Backup streaming (stages 2/3) ---
  // Suppressed while any revoked node is unconfirmed: a zero-warning
  // victim never reaches the clock barrier, so clocks completed since
  // the revocation are missing its updates (tainted) and must not be
  // captured as the rollback target.
  if (roles_.UsesBackups() && revoked_.empty() &&
      (clock_ + 1) % config_.backup_sync_every == 0) {
    SyncAllToBackups(TrafficClass::kBackground);
    last_sync_clock_ = clock_ + 1;
    obs_.Event("backup.sync", "agileml", clock_start,
               {{"synced_clock", static_cast<std::int64_t>(clock_ + 1)}});
  }

  // --- Virtual timing ---
  IterationReport report;
  const double cost_per_item = app_->CostPerItem();
  SimDuration gate_compute = 0.0;  // Gating node's own compute / comm.
  SimDuration gate_comm = 0.0;
  std::int64_t ready_reliable = 0;
  std::int64_t ready_transient = 0;
  std::int64_t ready_serverless = 0;
  for (const auto& node : nodes_) {
    if (!IsReady(node.id)) {
      continue;
    }
    if (node.reliable()) {
      ++ready_reliable;
    } else if (node.serverless()) {
      ++ready_serverless;
    } else {
      ++ready_transient;
    }
    SimDuration compute = 0.0;
    if (roles_.worker_nodes.count(node.id) > 0 && revoked_.count(node.id) == 0) {
      double items = 0.0;
      for (const ItemRange& range : data_.RangesOf(node.id)) {
        items += static_cast<double>(clock_slice(range).size());
      }
      compute = items * cost_per_item /
                (static_cast<double>(node.cores) * node.speed * config_.core_speed);
    }
    const SimDuration comm = fabric_.RoundCommTime(node.id);
    const SimDuration total = std::max(compute, comm) +
                              (1.0 - config_.comm_compute_overlap) * std::min(compute, comm);
    report.max_compute = std::max(report.max_compute, compute);
    report.max_comm = std::max(report.max_comm, comm);
    if (total > report.bottleneck_time) {
      report.bottleneck_time = total;
      report.bottleneck_node = node.id;
      gate_compute = compute;
      gate_comm = comm;
    }
  }
  bool gated_by_compute = gate_compute >= gate_comm;
  if (config_.bisection_bandwidth > 0.0) {
    const SimDuration fabric_floor =
        static_cast<SimDuration>(fabric_.RoundTotalBytes()) / config_.bisection_bandwidth;
    if (fabric_floor > report.bottleneck_time) {
      report.bottleneck_time = fabric_floor;
      gated_by_compute = false;  // The core switch, not any node, gates.
    }
  }
  // Serialized split of the critical path: the gating resource counts in
  // full, the other contributes only its non-overlapped residue; any
  // bisection-floor excess is transport. The two sides reassemble into
  // bottleneck_time exactly — the analyzer's 100%-attribution invariant.
  {
    const double residue = 1.0 - config_.comm_compute_overlap;
    SimDuration compute_part = gated_by_compute ? gate_compute : residue * gate_compute;
    compute_part = std::min(compute_part, report.bottleneck_time);
    report.critical_compute = compute_part;
    report.critical_transport = report.bottleneck_time - compute_part;
  }
  report.duration = report.bottleneck_time + config_.barrier_overhead + stall;
  report.stall = stall;
  report.total_bytes = fabric_.RoundTotalBytes();
  report.stage = roles_.stage;
  report.worker_nodes = static_cast<int>(workers.size());

  ++clock_;
  for (const NodeId w : workers) {
    if (clocks_.HasWorkerNode(w)) {
      clocks_.AdvanceTo(w, clock_);
    }
  }
  report.clock = clock_;
  total_time_ += report.duration;
  last_duration_ = report.duration;

  clock_duration_hist_->Observe(report.duration);
  if (stall > 0.0) {
    stall_seconds_counter_->Add(static_cast<std::uint64_t>(stall * 1e6));
  }
  const double backup_lag_clocks =
      roles_.UsesBackups() ? static_cast<double>(clock_ - last_sync_clock_) : 0.0;
  backup_lag_gauge_->Set(backup_lag_clocks);
  worker_nodes_gauge_->Set(static_cast<double>(report.worker_nodes));
  obs_.Sample(total_time_, "backup_lag_clocks", "agileml", backup_lag_clocks);
  obs_.Sample(total_time_, "worker_nodes", "agileml", static_cast<double>(report.worker_nodes));
  if (stall > 0.0) {
    // Forced (eviction/failure-handling) transfers serialized ahead of
    // this clock: the per-clock share of recovery time.
    obs_.Span(clock_start, stall, "recovery.stall", "agileml",
              {{"clock", static_cast<std::int64_t>(clock_)}});
  }

  // --- Heartbeat / lease failure detection ---
  // Runs after the clock has fully advanced, so a detector-driven
  // rollback keeps the progress-accounting invariant: clock_ + lost
  // advances by exactly one per RunClock, with the rollback delta moved
  // to the lost side.
  if (config_.detector.enabled) {
    std::int64_t beats = 0;
    for (const NodeId id : ready_) {
      if (silenced_.count(id) > 0) {
        continue;  // Gray-failed: control plane cut, no lease renewal.
      }
      if (detector_.Heartbeat(id, clock_)) {
        // The node was under suspicion and came back: a false positive.
        detector_false_positives_counter_->Increment();
        obs_.Event("detector.recovered", "agileml", total_time_,
                   {{"node", static_cast<std::int64_t>(id)},
                    {"clock", static_cast<std::int64_t>(clock_)}});
      }
      ++beats;
    }
    if (beats > 0) {
      control_log_.Record(ControlMessage::kHeartbeat, beats);
      obs_.Event("heartbeat", "agileml", total_time_, {{"beats", beats}});
    }
    const FailureDetectorReport fd = detector_.Poll(clock_);
    // The counter track steps through this runtime's own running count,
    // one sample per new suspicion.
    std::uint64_t suspicions = detector_.suspicions() - fd.newly_suspected.size();
    for (const NodeId id : fd.newly_suspected) {
      control_log_.Record(ControlMessage::kSuspicionNotice);
      detector_suspicions_counter_->Increment();
      obs_.Sample(total_time_, "detector_suspicions", "agileml",
                  static_cast<double>(++suspicions));
      obs_.Event("detector.suspected", "agileml", total_time_,
                 {{"node", static_cast<std::int64_t>(id)},
                  {"clock", static_cast<std::int64_t>(clock_)}});
    }
    if (!fd.confirmed_dead.empty()) {
      // The latency gauge reports the batch maximum: when many nodes are
      // confirmed in the same clock (an eviction storm), per-death Set()
      // calls would leave whichever node happened to be last — the gauge
      // must reflect the slowest confirmation of the batch.
      double batch_latency = 0.0;
      for (const ConfirmedDeath& death : fd.confirmed_dead) {
        report.confirmed_dead.push_back(death.node);
        silenced_.erase(death.node);
        batch_latency = std::max(batch_latency, static_cast<double>(death.missed_clocks));
        detector_confirmed_counter_->Increment();
        obs_.Event("detector.confirmed_dead", "agileml", total_time_,
                   {{"node", static_cast<std::int64_t>(death.node)},
                    {"missed_clocks", death.missed_clocks},
                    {"clock", static_cast<std::int64_t>(clock_)}});
      }
      detector_latency_gauge_->Set(batch_latency);
      Fail(report.confirmed_dead);
    }
  }

  IncorporateReady();
  obs_.Close(clock_region, report.duration,
             {{"stage", std::string(StageName(report.stage))},
              {"workers", static_cast<std::int64_t>(report.worker_nodes)},
              {"reliable_nodes", ready_reliable},
              {"transient_nodes", ready_transient},
              {"serverless_nodes", ready_serverless},
              {"t_compute", report.critical_compute},
              {"t_transport", report.critical_transport},
              {"stall", report.stall},
              {"barrier", config_.barrier_overhead},
              {"gate", std::string(gated_by_compute ? "compute" : "transport")},
              {"bottleneck_node", static_cast<std::int64_t>(report.bottleneck_node)},
              {"pull_bytes", static_cast<std::int64_t>(pull_bytes)},
              {"push_bytes", static_cast<std::int64_t>(push_bytes)},
              {"total_bytes", static_cast<std::int64_t>(report.total_bytes)}});
  return report;
}

SimDuration AgileMLRuntime::RunClocks(int n) {
  SimDuration total = 0.0;
  for (int i = 0; i < n; ++i) {
    total += RunClock().duration;
  }
  return total;
}

}  // namespace proteus
