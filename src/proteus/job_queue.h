// Sequential job execution (§5): "Proteus assumes that multiple ML
// applications are executed in sequence. Upon completing the final job
// in the queue, Proteus immediately terminates the on-demand resources.
// It then waits until the end of current billing hours to terminate the
// spot allocations, in hope that they are evicted by AWS prior to the
// end of the billing hour, lowering the overall cost."
//
// The queue reuses the live footprint across job boundaries — a spot
// hour paid for job k keeps working for job k+1, which is exactly why
// the paper's per-job accounting does not charge a job for the minutes
// remaining in its final billing hours.
#ifndef SRC_PROTEUS_JOB_QUEUE_H_
#define SRC_PROTEUS_JOB_QUEUE_H_

#include <string>
#include <vector>

#include "src/proteus/job_simulator.h"

namespace proteus {

struct QueuedJob {
  std::string name;
  JobSpec spec;
};

struct QueuedJobResult {
  std::string name;
  bool completed = false;
  SimDuration runtime = 0.0;
  // Per-job cost: this job's share of the footprint's charges, computed
  // with the paper's accounting (final partial hours carried over to the
  // next job are not charged to this one).
  Money cost = 0.0;
  int evictions = 0;
};

struct JobQueueResult {
  std::vector<QueuedJobResult> jobs;
  Money total_cost = 0.0;      // True total billed for the whole queue.
  SimDuration makespan = 0.0;
  // Money saved at shutdown by spot allocations that AWS evicted before
  // their final billing hour ended (the §5 "hope for eviction").
  Money shutdown_refunds = 0.0;
};

class JobQueueSimulator {
 public:
  JobQueueSimulator(const InstanceTypeCatalog* catalog, const TraceStore* traces,
                    const EvictionModel* estimator);

  // Runs the jobs back to back with one shared footprint (Proteus
  // scheme). Allocations persist across job boundaries.
  JobQueueResult Run(const std::vector<QueuedJob>& jobs, const SchemeConfig& config,
                     SimTime start) const;

 private:
  JobSimulator sim_;  // Runs each job over the queue's shared footprint.
};

}  // namespace proteus

#endif  // SRC_PROTEUS_JOB_QUEUE_H_
