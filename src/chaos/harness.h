// Chaos soak harness: drives an AgileMLRuntime through a seeded
// adversarial fault schedule, audits every clock boundary, and reports
// recovery overhead per fault class.
//
// The harness plays the part of the market plus elasticity controller:
// it groups transient nodes into zone-tagged allocations (the unit spot
// revocation acts on), applies the FaultInjector's schedule against the
// runtime, mirrors every grant/notice onto a control channel whose fault
// hook may drop or delay frames, replenishes capacity after losses (as
// BidBrain would at its next decision point), and checkpoints the
// reliable tier periodically so stage-1 failures are survivable.
//
// Everything is deterministic in the seed: two runs with the same seed
// and config produce bit-identical results (Digest() compares them).
#ifndef SRC_CHAOS_HARNESS_H_
#define SRC_CHAOS_HARNESS_H_

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/agileml/recovery_manager.h"
#include "src/agileml/runtime.h"
#include "src/chaos/consistency_auditor.h"
#include "src/chaos/fault_injector.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/emitter.h"
#include "src/ps/checkpoint_store.h"
#include "src/rpc/channel.h"

namespace proteus {

struct ChaosConfig {
  AgileMLConfig agileml;
  FaultScheduleConfig schedule;
  int initial_reliable = 2;
  int initial_transient_allocations = 2;
  int nodes_per_allocation = 4;
  // Replenish (as BidBrain would) when ready+preparing transient nodes
  // drop below this.
  int min_transient = 4;
  // Ultra-transient serverless tier (zero eviction warning, PR 10).
  // Serverless allocations hold worker-only burstable slots; the
  // kTierStorm fault class revokes them with no notice of any kind.
  // Thinned capacity is replenished back toward `min_serverless`.
  int initial_serverless_allocations = 0;
  int serverless_nodes_per_allocation = 2;
  int min_serverless = 0;
  // Checkpoint the reliable tier every this many clock boundaries (also
  // once at start-up, so a stage-1 reliable failure is always
  // survivable). Every in-memory checkpoint is mirrored to the durable
  // device through the RecoveryManager.
  int checkpoint_every = 5;
  // Durable epochs retained before garbage collection.
  int durable_retain = 3;
  // Scrub the durable store every this many boundaries (0 = never).
  int scrub_every = 4;
  std::uint64_t seed = 1;
};
// Note: the harness always arms the runtime's failure detector (the
// silent-hang and blackhole fault classes are only observable through
// it); a disabled agileml.detector is enabled with suspect_after=1,
// confirm_after=3.

// Recovery overhead attributed to one fault class across a run.
struct FaultClassStats {
  int events = 0;             // Events of this class actually applied.
  int lost_clocks = 0;        // Clocks rolled back by this class.
  SimDuration stall_seconds = 0.0;  // Forced-transfer stalls it caused.
  std::int64_t control_messages = 0;  // Controller notifications it drove.
};

struct ChaosRunResult {
  Clock final_clock = 0;
  int clocks_run = 0;  // RunClock() invocations (>= final_clock with rollbacks).
  int lost_clocks_total = 0;
  SimDuration virtual_time = 0.0;
  double final_objective = 0.0;
  std::array<FaultClassStats, kNumFaultClasses> per_class{};
  std::vector<AuditViolation> violations;
  // Control-channel accounting (the §5 BidBrain -> controller link).
  std::uint64_t control_sent = 0;
  std::uint64_t control_delivered = 0;
  std::uint64_t control_dropped = 0;
  std::uint64_t control_pending = 0;
  std::uint64_t control_duplicated = 0;  // Fault-injected extra copies.
  std::string control_log_summary;
  // Failure-detector accounting (silent hangs / blackholes).
  std::uint64_t detector_suspicions = 0;
  std::uint64_t detector_confirmed_dead = 0;
  std::uint64_t detector_false_positives = 0;
  // Durability-tier accounting (PR 6): recovery events per escalation
  // depth (indexed by RecoveryDepth), durable checkpoint traffic, and
  // corruption bookkeeping. An injected corruption is only ever visible
  // as a skipped epoch or a scrub hit — never as loaded state.
  std::array<int, 4> recovery_depths{};
  std::uint64_t durable_epochs_committed = 0;
  std::uint64_t durable_commit_aborts = 0;
  int corrupt_frames_injected = 0;
  int corrupt_epochs_skipped = 0;
  int torn_checkpoints_armed = 0;
  std::uint64_t scrubs_run = 0;
  std::uint64_t scrub_corruptions_found = 0;
  // Ultra-transient-tier accounting (PR 10): serverless nodes revoked
  // with zero warning by tier storms (all of them silent by definition).
  std::uint64_t serverless_nodes_revoked = 0;

  bool ok() const { return violations.empty(); }
  // Order-sensitive fingerprint of every numeric field; equal digests
  // across two runs with the same seed certify determinism.
  std::uint64_t Digest() const;
};

class ChaosHarness {
 public:
  // The app must outlive the harness. Model state lives inside the
  // harness's runtime, so one app can serve many sequential runs.
  ChaosHarness(MLApp* app, ChaosConfig config);
  ~ChaosHarness();

  ChaosHarness(const ChaosHarness&) = delete;
  ChaosHarness& operator=(const ChaosHarness&) = delete;

  // Attaches the whole chaos stack to an observability sink: every
  // applied fault drops a "fault.<class>" instant on the "chaos" track,
  // the recovery clock that follows gets a "recovery" span carrying its
  // fault class and stall share, the auditor reports violations, and the
  // call forwards to the runtime and the control channel. Timestamps are
  // the runtime's virtual time, so same-seed traces are bit-identical.
  void SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  // Attaches the causal event ledger (and optional flight recorder) to
  // the whole chaos stack: Run() becomes a "run" causal region, every
  // applied fault a "fault" region whose rollbacks/recoveries are its
  // children, and auditor violations auto-dump the recorder. The ledger
  // never feeds ChaosRunResult::Digest(), so chaos determinism digests
  // are unchanged. Either pointer may be nullptr.
  void SetLedger(obs::EventLedger* ledger, obs::FlightRecorder* recorder);

  // Executes the full schedule; returns the run report.
  ChaosRunResult Run();

  const AgileMLRuntime& runtime() const { return *runtime_; }
  const FaultInjector& injector() const { return injector_; }
  const ConsistencyAuditor& auditor() const { return auditor_; }
  const Channel& control_channel() const { return control_channel_; }
  const RecoveryManager& recovery() const { return *recovery_; }
  const CheckpointStore& store() const { return *store_; }
  MemDurableDevice& device() { return device_; }

 private:
  struct ChaosAllocation {
    int zone = 0;
    bool serverless = false;  // Serverless allocations have no zone.
    std::vector<NodeId> nodes;
  };

  // Applies one fault event; returns false if preconditions are not met
  // yet (the event is retried at the next clock boundary).
  bool Apply(const FaultEvent& event);

  AllocationId AddAllocation(int zone, int count);
  AllocationId AddServerlessAllocation(int count);
  // Removes the given nodes from allocation bookkeeping.
  void ForgetNodes(const std::vector<NodeId>& nodes);
  // Drops every spot allocation from bookkeeping; serverless ones stay.
  void ClearTransientAllocations();
  std::vector<NodeId> ReadyTransientIds() const;   // Spot only.
  std::vector<NodeId> AllTransientIds() const;     // Spot, ready + preparing.
  std::vector<NodeId> ReadyServerlessIds() const;
  void SendEvictionNotice(AllocationId id, const std::vector<NodeId>& nodes,
                          bool warned);

  MLApp* app_;
  ChaosConfig config_;
  FaultInjector injector_;
  std::unique_ptr<AgileMLRuntime> runtime_;
  ConsistencyAuditor auditor_;
  Channel control_channel_;
  // Durable tier: an in-memory simulated device (with fault hooks the
  // checkpoint-corruption classes use) under a versioned store, driven
  // by the RecoveryManager's cadence and escalation ladder.
  MemDurableDevice device_;
  std::unique_ptr<CheckpointStore> store_;
  std::unique_ptr<RecoveryManager> recovery_;
  int corrupt_frames_injected_ = 0;
  int torn_checkpoints_armed_ = 0;
  int corrupt_epochs_skipped_ = 0;
  std::uint64_t serverless_nodes_revoked_ = 0;

  std::map<AllocationId, ChaosAllocation> allocations_;
  AllocationId next_allocation_ = 0;
  NodeId next_node_ = 0;
  std::vector<FaultEvent> deferred_;
  // Allocations added by a preparing-eviction event, to be revoked at
  // the next clock boundary (mid-preload).
  std::vector<AllocationId> pending_preload_evictions_;
  // Boundary currently being processed (so Apply can schedule resumes).
  Clock boundary_ = 0;
  // Silent-hang victims and the boundary at which they resume
  // heartbeating (if still alive); blackholed nodes never appear here.
  std::map<NodeId, Clock> silent_resume_;
  // Which fault class silenced each node, for loss attribution when the
  // detector confirms it dead.
  std::map<NodeId, FaultClass> silenced_cause_;
  // Fault classes whose detector-driven rollback happened inside the
  // previous RunClock: their forced transfers stall the next clock, so
  // the stall share is attributed there.
  std::vector<FaultClass> carryover_classes_;

  // Re-resolves the per-class fault counters against obs_'s registry.
  void BindMetrics();

  obs::Emitter obs_;
  std::array<obs::Counter*, kNumFaultClasses> fault_counters_{};
};

}  // namespace proteus

#endif  // SRC_CHAOS_HARNESS_H_
