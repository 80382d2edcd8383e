// AgileMLRuntime: executes real ML training over the tiered parameter
// server, with virtual timing.
//
// The runtime plays the roles of the paper's per-node AgileML processes
// plus the elasticity controller (§3.1-§3.3):
//   - real arithmetic: worker code (the MLApp) reads and updates actual
//     parameter values in the ModelStore, so convergence is measurable;
//   - virtual timing: per-clock compute time is items x cost / (cores x
//     core_speed), and communication time comes from the Fabric's
//     byte accounting (see src/net/fabric.h for the contention model);
//   - elasticity: bulk addition (background data preload, then
//     incorporation), warned eviction (end-of-life partition pushes,
//     partition migration to survivors), and unwarned failure (rollback
//     to the last BackupPS-consistent clock, lost work re-done).
//
// A "clock" is one pass over each worker's assigned input data (the
// paper's flexible clock-of-work; §3.1 footnote 3).
#ifndef SRC_AGILEML_RUNTIME_H_
#define SRC_AGILEML_RUNTIME_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "src/agileml/app.h"
#include "src/agileml/cluster.h"
#include "src/agileml/control_plane.h"
#include "src/agileml/data_assignment.h"
#include "src/agileml/failure_detector.h"
#include "src/agileml/roles.h"
#include "src/agileml/tier_guard.h"
#include "src/common/thread_pool.h"
#include "src/common/types.h"
#include "src/net/fabric.h"
#include "src/obs/emitter.h"
#include "src/ps/model.h"

namespace proteus {

struct AgileMLConfig {
  // Fixed global partition count N (§3.3: set once at start-up; the
  // paper uses half the maximum resource count).
  int num_partitions = 32;
  // Virtual core speed: app cost-units per core-second. Calibrated so
  // iteration times land in the paper's seconds range.
  double core_speed = 5e6;
  // Cluster bisection bandwidth, bytes/sec (0 = unconstrained). Models
  // an oversubscribed core switch: a clock can never finish faster than
  // total wire bytes / bisection, regardless of per-NIC headroom. EC2
  // placement groups behave close to unconstrained, which is the
  // default.
  double bisection_bandwidth = 0.0;
  // Input-data load rate from S3-like storage, bytes/sec per node.
  double storage_bandwidth = 6.25e7;
  // Active->Backup streaming happens every this many clocks.
  int backup_sync_every = 1;
  // Input data divided into this many blocks for ownership tracking.
  int data_blocks = 256;
  // A clock of work may be a fraction of a full data pass (§3.1
  // footnote 3: "a mini-batch of an iteration"). With k > 1, each clock
  // processes 1/k of every worker's data, rotating so k consecutive
  // clocks cover the full pass.
  int minibatches_per_pass = 1;
  RolePlannerConfig planner;
  // Heartbeat/lease failure detection (off by default; when enabled,
  // every ready node renews its lease each clock and silently hung
  // nodes are confirmed dead — and Fail()ed internally — after
  // detector.confirm_after missed clocks).
  FailureDetectorConfig detector;
  // Placement bounds for the ultra-transient (serverless) tier. The
  // zero-PS invariant is audited even when disabled; the fraction and
  // sync-lag bounds apply only when enabled.
  TierGuardConfig tier_guard;
  std::uint64_t seed = 1;
  // Run per-node work on a thread pool (true) or sequentially (for
  // deterministic tests).
  bool parallel_execution = true;
};

struct IterationReport {
  Clock clock = 0;                    // Clock index just completed.
  SimDuration duration = 0.0;         // Virtual wall time of this clock.
  SimDuration max_compute = 0.0;      // Slowest node's compute time.
  SimDuration max_comm = 0.0;         // Slowest node's comm time.
  SimDuration bottleneck_time = 0.0;  // compute+comm of the gating node.
  NodeId bottleneck_node = kInvalidNode;
  // Decomposition of bottleneck_time into the gating node's serialized
  // compute and transport shares (overlap-adjusted; a bisection floor
  // lands on the transport side). critical_compute + critical_transport
  // == bottleneck_time by construction — the event ledger and
  // proteus_analyze build per-clock critical-path attribution from it.
  SimDuration critical_compute = 0.0;
  SimDuration critical_transport = 0.0;
  std::uint64_t total_bytes = 0;      // All wire bytes this clock.
  // Pipeline stall from forced (eviction/failure-handling) transfers;
  // already included in `duration`. The chaos harness attributes this to
  // the fault class that queued the transfers.
  SimDuration stall = 0.0;
  Stage stage = Stage::kStage1;
  int worker_nodes = 0;
  // Nodes the failure detector confirmed dead (and Fail()ed) at the end
  // of this clock — external drivers mirroring membership (the chaos
  // harness) use this to forget them.
  std::vector<NodeId> confirmed_dead;
};

class AgileMLRuntime {
 public:
  // Initial nodes are incorporated immediately (input data is loaded
  // during start-up, before training begins).
  AgileMLRuntime(MLApp* app, AgileMLConfig config, const std::vector<NodeInfo>& initial_nodes);
  ~AgileMLRuntime();

  AgileMLRuntime(const AgileMLRuntime&) = delete;
  AgileMLRuntime& operator=(const AgileMLRuntime&) = delete;

  // Attaches the runtime to an observability sink. Spans and instants
  // land on the "agileml" track of `tracer`, timestamped in this
  // runtime's virtual time; counters/gauges register in `metrics`.
  // Either may be nullptr; call before RunClock for complete traces.
  void SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  // Attaches the causal event ledger. Each RunClock opens a "clock"
  // region so everything recorded during it (push/pull accounting,
  // backup syncs, heartbeats, detector verdicts, detector-driven
  // rollbacks) carries the clock as its causal parent; elasticity and
  // failure handling emit their own events. May be nullptr.
  void SetLedger(obs::EventLedger* ledger);
  // Ledger id of the most recent "clock" region — the causal anchor for
  // after-the-clock observers (the ConsistencyAuditor parents its
  // violation events here).
  obs::EventId last_clock_event() const { return last_clock_event_; }

  // Executes one clock of work and advances virtual time.
  IterationReport RunClock();
  // Convenience: n clocks; returns the sum of durations.
  SimDuration RunClocks(int n);

  // --- Elasticity (the paper's elasticity controller interface) ---
  // Bulk addition: nodes join, preload input data in the background, and
  // are incorporated once loaded (zero disruption; §3.3 "Scaling Up").
  void AddNodes(const std::vector<NodeInfo>& nodes);
  // Warned eviction (2-minute warning honored): end-of-life pushes /
  // partition moves to survivors; no lost work. Nodes may be a subset of
  // the transient set or all of it.
  void Evict(const std::vector<NodeId>& node_ids);
  // Unwarned failure: rollback to the last backup-consistent clock.
  // Returns the number of lost clocks that will be re-done.
  int Fail(const std::vector<NodeId>& node_ids);
  // Unwarned failure where *both* tiers lost their copy of the solution
  // state (correlated bulk eviction took the ActivePSs and the
  // BackupPS/checkpoint holders at once). Instead of rolling back to the
  // backup copy, state is restored from the installed checkpoint — the
  // caller (normally the RecoveryManager) must InstallCheckpoint()
  // first. Returns lost clocks.
  int FailWithDurableRestore(const std::vector<NodeId>& node_ids);

  // Gray failure: the node stops participating in the control plane
  // (its heartbeats cease) while its compute keeps running, as with a
  // silently hung or blackholed process. With the detector enabled the
  // node is suspected and, after detector.confirm_after missed clocks,
  // confirmed dead and Fail()ed internally — no external Fail() call.
  // Silencing requires the node be ready; clearing is always allowed.
  void SetNodeSilent(NodeId id, bool silent);
  bool IsSilencedNode(NodeId id) const { return silenced_.count(id) > 0; }

  // Zero-warning revocation (the serverless tier's only failure mode):
  // the node's data plane AND control plane die in the same instant — it
  // stops executing work and stops heartbeating, but remains in the
  // membership until the detector confirms the death and Fail()s it
  // internally. Unlike SetNodeSilent (gray failure: compute keeps
  // running), a revoked node contributes nothing from this moment on,
  // so every clock completed before confirmation is missing its
  // updates; FailInternal therefore treats any revoked victim as a
  // solution-state loss and rolls back to the last backup sync even
  // when the victims held no parameter-server roles ("taint rollback").
  void SetNodeRevoked(NodeId id);
  bool IsRevokedNode(NodeId id) const { return revoked_.count(id) > 0; }
  // Revoked nodes still awaiting detector confirmation. While nonzero,
  // backup syncs are suppressed (they would capture tainted clocks), so
  // lag auditors must widen their bound by the detector confirm window.
  int RevokedCount() const { return static_cast<int>(revoked_.size()); }

  // Runs the TierGuard invariants against the current placement (the
  // ConsistencyAuditor calls this at every clock boundary).
  TierGuardReport AuditTierGuard() const;
  const TierGuard& tier_guard() const { return guard_; }

  // Checkpoint of the reliable tier (§3.3: insures against reliable-node
  // failure; free in stage 3 because reliable nodes run no workers).
  // Returns the blob it holds, valid until the next checkpoint change.
  const std::vector<std::uint8_t>& CheckpointReliable();
  bool HasCheckpoint() const { return checkpoint_.has_value(); }
  // Clock the last reliable-tier checkpoint was taken at (-1 when none).
  Clock checkpoint_clock() const { return checkpoint_ ? checkpoint_->clock : -1; }
  // Restores model state from the last checkpoint; returns lost clocks.
  int RestoreFromCheckpoint();
  // Replaces the held checkpoint with externally recovered state (e.g.
  // a canonical model blob read back from a durable CheckpointStore).
  // Installing into a fresh runtime and calling RestoreFromCheckpoint()
  // resumes a crashed run.
  void InstallCheckpoint(std::vector<std::uint8_t> blob, Clock clock);
  // Models losing the in-memory checkpoint with its reliable holders
  // (correlated wipeout): after this only a durable copy can help.
  void DropCheckpoint();

  // --- Introspection ---
  Clock clock() const { return clock_; }
  Stage stage() const { return roles_.stage; }
  SimDuration total_time() const { return total_time_; }
  int lost_clocks_total() const { return lost_clocks_total_; }
  // Last clock at which the backup copy was made consistent with the
  // active state (sync, snapshot, or rollback). Meaningful in stages
  // 2/3; the auditor checks clock() - last_sync_clock() stays bounded.
  Clock last_sync_clock() const { return last_sync_clock_; }
  bool IsReadyNode(NodeId id) const { return IsReady(id); }
  bool IsPreparingNode(NodeId id) const { return preparing_.count(id) > 0; }
  const RoleAssignment& roles() const { return roles_; }
  const ModelStore& model() const { return model_; }
  const DataAssignment& data() const { return data_; }
  const Fabric& fabric() const { return fabric_; }
  const std::vector<NodeInfo>& nodes() const { return nodes_; }
  // Controller-to-node notification counts (see control_plane.h).
  const ControlPlaneLog& control_log() const { return control_log_; }
  const FailureDetector& failure_detector() const { return detector_; }
  void ResetControlLog() { control_log_.Reset(); }
  std::vector<NodeInfo> ReadyNodes() const;
  TierCounts ReadyTierCounts() const;
  int PreparingCount() const { return static_cast<int>(preparing_.size()); }
  double ComputeObjective() const;
  const AgileMLConfig& config() const { return config_; }
  // Lifetime totals for the checkpoint machinery (mirrored into
  // ProteusRunSummary and the agileml.checkpoint.* metrics).
  std::uint64_t checkpoint_bytes_written_total() const { return checkpoint_bytes_written_total_; }
  std::uint64_t checkpoint_bytes_restored_total() const { return checkpoint_bytes_restored_total_; }
  int restore_clocks_lost_total() const { return restore_clocks_lost_total_; }
  // Clocks credited back against lost_clocks_total_ by forward restores
  // (a durable epoch newer than the last backup sync). The lost-clock
  // counter may only decrease by exactly this credit.
  int restore_clocks_credited_total() const { return restore_clocks_credited_total_; }

 private:
  struct QueuedTransfer {
    NodeId src = kInvalidNode;  // kInvalidNode => external storage.
    NodeId dst = kInvalidNode;  // kInvalidNode => external storage.
    std::uint64_t bytes = 0;
    TrafficClass cls = TrafficClass::kForeground;
    // Forced (eviction/failure-handling) transfers stall the pipeline:
    // their time is added to the next clock without compute overlap —
    // this is the paper's Fig. 16 eviction "blip".
    bool stall = false;
  };

  // One RunClock worker's access log and its distinct rows' wire bytes
  // per partition, indexed by the worker's position in the clock's
  // worker list and reused across clocks.
  struct WorkerSlot {
    AccessLog log;
    std::vector<std::uint64_t> pull_bytes;  // Server -> worker.
    std::vector<std::uint64_t> push_bytes;  // Worker -> server.
  };

  struct Checkpoint {
    std::vector<std::uint8_t> blob;  // ModelStore::SerializeCheckpoint().
    Clock clock = 0;
  };

  bool IsReady(NodeId id) const { return ready_.count(id) > 0; }

  // Shared body of Fail / FailWithDurableRestore.
  int FailInternal(const std::vector<NodeId>& node_ids, bool durable_restore);

  // The departure path shared by Evict and Fail. Unready takes a node
  // out of the ready set, the lease table and the silenced set; a node
  // still preloading is forgotten at once, and Unready returns false.
  bool Unready(NodeId id);
  // Re-plans roles without the `gone` nodes, moves their data, then
  // forgets them. `warned` nodes are alive and push their own state.
  void Depart(const std::set<NodeId>& gone, bool warned);
  // Drops `id` from the fabric and the node list.
  void Forget(NodeId id);

  // Re-plans roles over ready nodes and queues the state transfers the
  // transition requires. `leaving` nodes (warned, still alive) push their
  // state to its new owner, charged to the receiver only. `forced` marks
  // transfers as foreground (eviction/failure handling) rather than
  // background (planned growth).
  void TransitionRoles(const std::set<NodeId>& leaving, bool forced);

  // The current worker nodes in join order.
  std::vector<NodeId> WorkersInJoinOrder() const;

  // Rebalances input data over current worker nodes; charges loads for
  // moves whose destination lacks the block (forced => foreground).
  void RebalanceData(bool forced);

  // Incorporates nodes that finished preloading.
  void IncorporateReady();

  // Streams dirty state from every serving node to its backup; charges
  // fg or bg traffic. Updates last_sync_clock_.
  void SyncAllToBackups(TrafficClass cls);

  // Returns the stall time (seconds) contributed by forced transfers.
  SimDuration ChargeQueuedTransfers();

  MLApp* app_;
  AgileMLConfig config_;
  ModelStore model_;
  Fabric fabric_;
  DataAssignment data_;
  RolePlanner planner_;
  RoleAssignment roles_;

  std::vector<NodeInfo> nodes_;  // Join order; includes preparing nodes.
  std::set<NodeId> ready_;
  std::map<NodeId, std::uint64_t> preparing_;  // Remaining preload bytes.

  FailureDetector detector_;
  std::set<NodeId> silenced_;  // Ready nodes with heartbeats cut.
  // Ready nodes revoked with zero warning: no work, no heartbeats; still
  // in the membership until the detector confirms them dead.
  std::set<NodeId> revoked_;
  TierGuard guard_;

  ControlPlaneLog control_log_;
  std::vector<QueuedTransfer> queued_;
  std::vector<WorkerSlot> slots_;
  std::optional<Checkpoint> checkpoint_;
  // Bytes of the most recent background active->backup stream per
  // partition. The stream is asynchronous, so on an eviction-driven
  // transition the BackupPS must first absorb this in-flight tail (the
  // paper's "network overhead in aggressively bringing up-to-date the
  // BackupPSs", Fig. 16).
  std::map<PartitionId, std::uint64_t> last_sync_bytes_;

  Clock clock_ = 0;
  Clock last_sync_clock_ = 0;
  SimDuration total_time_ = 0.0;
  SimDuration last_duration_ = 1.0;
  int lost_clocks_total_ = 0;
  std::uint64_t checkpoint_bytes_written_total_ = 0;
  std::uint64_t checkpoint_bytes_restored_total_ = 0;
  int restore_clocks_lost_total_ = 0;
  int restore_clocks_credited_total_ = 0;

  // Re-resolves the cached metric handles against obs_'s registry.
  void BindMetrics();

  // Observability, and metric handles cached from its registry (never
  // null). All recording happens on the serial control path, never
  // inside the worker thread pool.
  obs::Emitter obs_;
  obs::EventId last_clock_event_ = obs::kNoEvent;
  obs::Counter* pull_bytes_counter_ = nullptr;
  obs::Counter* push_bytes_counter_ = nullptr;
  obs::Counter* backup_sync_bytes_counter_ = nullptr;
  obs::Counter* stage_transition_counter_ = nullptr;
  obs::Counter* rollback_clocks_counter_ = nullptr;
  obs::Counter* stall_seconds_counter_ = nullptr;
  obs::Counter* checkpoint_bytes_written_counter_ = nullptr;
  obs::Counter* checkpoint_bytes_restored_counter_ = nullptr;
  obs::Counter* restore_clocks_lost_counter_ = nullptr;
  obs::Gauge* backup_lag_gauge_ = nullptr;
  obs::Gauge* worker_nodes_gauge_ = nullptr;
  obs::Counter* detector_suspicions_counter_ = nullptr;
  obs::Counter* detector_confirmed_counter_ = nullptr;
  obs::Counter* detector_false_positives_counter_ = nullptr;
  obs::Gauge* detector_latency_gauge_ = nullptr;
  obs::Histogram* clock_duration_hist_ = nullptr;

  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace proteus

#endif  // SRC_AGILEML_RUNTIME_H_
