// Trace-driven long-horizon job simulation (§6.3 methodology).
//
// The paper's cost evaluation replays recorded spot-market traces from
// many random starting points and simulates each execution scheme over
// them, with application behaviour abstracted by the empirically-set
// parameters phi / sigma / lambda (Table 2) and the measured 17%
// checkpointing overhead. This simulator does the same over our traces.
//
// Schemes:
//  - kOnDemandOnly:        the reference: N on-demand machines.
//  - kStandardCheckpoint:  all-spot, bid = on-demand price on the
//                          cheapest market, checkpoint/restart recovery.
//  - kStandardAgileML:     AgileML elasticity (tiered reliability, no
//                          checkpoint overhead, cheap evictions) but the
//                          standard bidding strategy.
//  - kProteus:             AgileML + BidBrain.
//  - kFlintDiversified:    checkpoint/restart, the standard top-up split
//                          over the three cheapest markets (§8).
//
// Every scheme runs through one event loop: work accrues at phi per
// worker vCPU, a granted acquisition pauses it for sigma, and an
// AcquisitionPolicy decides every decision period. A scheme is a
// (policy, recovery) pair. Elastic recovery pauses for lambda on an
// eviction. Checkpoint-restart runs kCheckpointOverhead slower, rolls
// back to the last checkpoint and waits out a restart delay on an
// eviction, and makes no decisions while paused.
#ifndef SRC_PROTEUS_JOB_SIMULATOR_H_
#define SRC_PROTEUS_JOB_SIMULATOR_H_

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/bidbrain/acquisition_policy.h"
#include "src/bidbrain/bidbrain.h"
#include "src/bidbrain/eviction_estimator.h"
#include "src/common/types.h"
#include "src/market/spot_market.h"
#include "src/proteus/accounting.h"

namespace proteus {

enum class SchemeKind {
  kOnDemandOnly,
  kStandardCheckpoint,
  kStandardAgileML,
  kProteus,
  // Flint-style baseline (§8): checkpoint/restart elasticity, but the
  // capacity target is split across the cheapest distinct markets to
  // reduce the probability of one revocation taking the whole job.
  kFlintDiversified,
};

const char* SchemeName(SchemeKind scheme);

struct JobSpec {
  // Total work in vCPU-hours of worker machines. Helper below derives it
  // from a reference cluster and duration.
  WorkUnits total_work = 1024.0;
  // Reference on-demand cluster (the baseline configuration).
  std::string reference_type = "c4.2xlarge";
  int reference_count = 64;

  // total_work such that the reference cluster finishes in `duration`.
  static JobSpec ForReferenceDuration(const InstanceTypeCatalog& catalog,
                                      const std::string& type, int count, SimDuration duration,
                                      double phi);
};

// Checkpoint-restart's throughput overhead (§6.3: 17% observed).
inline constexpr double kCheckpointOverhead = 0.17;

struct SchemeConfig {
  // Reliable tier for AgileML-based schemes (paper: 3 on-demand).
  int on_demand_count = 3;
  std::string on_demand_type = "c4.xlarge";
  // Capacity target, in vCPUs, for the standard bidding strategy.
  int standard_target_vcpus = 512;
  BidBrainConfig bidbrain;
};

// Per-allocation slice of the final bill, for accounting audits (the
// backtest property tests check that the job bill is exactly the sum of
// these and that free compute only comes from evicted allocations).
struct AllocationBillDetail {
  AllocationId id = kInvalidAllocation;
  bool on_demand = false;
  bool evicted = false;  // Evicted before the job ended.
  int count = 0;
  JobBill bill;
};

struct JobResult {
  bool completed = false;
  SimDuration runtime = 0.0;
  JobBill bill;
  int evictions = 0;         // Allocation-level eviction events.
  int acquisitions = 0;      // Spot allocation requests granted.
  WorkUnits work_done = 0.0;
  // One entry per allocation the run ever held; bill is the sum of the
  // entries' bills.
  std::vector<AllocationBillDetail> allocation_bills;
  // Cost of the same job on the reference on-demand cluster, for
  // normalization (computed by the caller or via RunScheme on
  // kOnDemandOnly).
};

class JobSimulator {
 public:
  JobSimulator(const InstanceTypeCatalog* catalog, const TraceStore* traces,
               const EvictionModel* estimator);

  // Runs one scheme over the traces starting at `start`. Each call uses
  // a fresh SpotMarket so billing is isolated per run.
  JobResult Run(SchemeKind scheme, const JobSpec& job, const SchemeConfig& config,
                SimTime start) const;

  // Policy-driven run (the Policy Lab seam, DESIGN.md §9): the scheme
  // event loop with elastic recovery and every acquisition/termination
  // decision delegated to `policy` (kProteus is this with BidBrain).
  // When policy.OnDemandDoesWork() the initial footprint is the
  // reference on-demand cluster and on-demand machines produce the
  // work; otherwise it is the reliable serving tier
  // (config.on_demand_count x config.on_demand_type, W = 0) and spot
  // instances produce the work. Deterministic: same (traces, policy,
  // job, config, start) always yields the same JobResult.
  JobResult Run(const AcquisitionPolicy& policy, const JobSpec& job, const SchemeConfig& config,
                SimTime start) const;

 private:
  friend class JobQueueSimulator;

  enum class Recovery {
    kElastic,            // An eviction pauses work for lambda (AgileML).
    kCheckpointRestart,  // An eviction rolls back to the last checkpoint.
  };

  // The state one job leaves to the next: the job queue runs its jobs
  // back to back over one footprint.
  struct Footprint {
    Footprint(const InstanceTypeCatalog& catalog, const TraceStore& traces, SimTime start)
        : market(catalog, traces), now(start), paused_until(start), next_decision(start) {}

    SpotMarket market;
    std::vector<AllocationId> live;
    std::set<AllocationId> scheduled_termination;
    std::vector<std::pair<SimTime, AllocationId>> terminations;  // (when, allocation).
    SimTime now;
    SimTime paused_until;
    SimTime next_decision;
  };

  // A fresh footprint with its initial tier, one job, and the final bill.
  JobResult Run(const AcquisitionPolicy& policy, Recovery recovery, const JobSpec& job,
                const SchemeConfig& config, SimTime start) const;

  // The event loop: runs `job` from footprint.now until it completes or
  // times out. Fills every JobResult field but the bills.
  JobResult RunJob(const AcquisitionPolicy& policy, Recovery recovery, const JobSpec& job,
                   Footprint& footprint) const;

  const InstanceTypeCatalog* catalog_;
  const TraceStore* traces_;
  const EvictionModel* estimator_;
};

}  // namespace proteus

#endif  // SRC_PROTEUS_JOB_SIMULATOR_H_
