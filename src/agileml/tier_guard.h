// TierGuard: placement invariants for the ultra-transient (serverless)
// tier.
//
// Serverless capacity vanishes with zero warning, so AgileML may expose
// only a bounded slice of the computation to it. The guard enforces two
// hard invariants and one configurable bound:
//
//   1. Zero parameter-server exposure (hard): no serverless node ever
//      serves a partition, holds a backup, or hosts an ActivePS. The
//      RolePlanner guarantees this by construction; the guard re-checks
//      it every clock so a planner regression is caught immediately.
//   2. Bounded worker exposure: at most max_worker_fraction of ready
//      worker nodes may be serverless. Losing the whole tier then still
//      leaves enough workers to re-do the rolled-back clocks.
//   3. Bounded un-checkpointed work while exposed: whenever serverless
//      workers are present in stages 2/3, the backup-sync lag (clocks of
//      work a zero-warning storm would taint and force a rollback of)
//      must stay within max_unsynced_clocks_exposed.
//
// The ConsistencyAuditor runs Audit() at every clock boundary; the
// ProteusRuntime uses AdmissionHeadroom() to clamp serverless
// acquisitions before nodes ever join.
#ifndef SRC_AGILEML_TIER_GUARD_H_
#define SRC_AGILEML_TIER_GUARD_H_

#include <string>
#include <vector>

#include "src/agileml/cluster.h"
#include "src/agileml/roles.h"
#include "src/common/types.h"

namespace proteus {

struct TierGuardConfig {
  bool enabled = false;
  // Max fraction of ready worker-capable nodes that may be serverless.
  double max_worker_fraction = 0.5;
  // Max clocks since the last active->backup sync while serverless
  // workers are exposed (stages 2/3). <= 0 disables the bound.
  int max_unsynced_clocks_exposed = 4;
};

struct TierGuardReport {
  bool ok = true;
  std::string detail;  // First violated invariant, empty when ok.
  double worker_fraction = 0.0;     // Serverless share of ready nodes.
  int serverless_ps_roles = 0;      // Must always be zero.
  int unsynced_clocks = 0;          // clock - last_sync_clock.
};

class TierGuard {
 public:
  explicit TierGuard(TierGuardConfig config) : config_(config) {}

  // How many more serverless nodes may join given the current ready
  // membership (`pending` = serverless nodes already preloading).
  // Unlimited (a large value) when the guard is disabled.
  int AdmissionHeadroom(const TierCounts& ready, int pending) const;

  // Checks all invariants against the current placement. The zero-PS
  // invariant is checked even when the guard is disabled (it is a
  // correctness property, not a tunable). `extra_lag_allowance` widens
  // the sync-lag bound while zero-warning revocations await detector
  // confirmation (backup syncs are suppressed then to avoid capturing
  // tainted clocks).
  TierGuardReport Audit(const std::vector<NodeInfo>& ready_nodes, const RoleAssignment& roles,
                        Clock clock, Clock last_sync_clock,
                        int extra_lag_allowance = 0) const;

  const TierGuardConfig& config() const { return config_; }

 private:
  TierGuardConfig config_;
};

}  // namespace proteus

#endif  // SRC_AGILEML_TIER_GUARD_H_
